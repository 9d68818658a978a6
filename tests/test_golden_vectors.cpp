// Golden byte-exact codec vectors (in the style of erasure-code stability
// tests): fixed seeded datawords for RS(18,16), RS(36,16) and RS(255,223)
// over GF(2^8), pinned to literal parity bytes, plus one errors+erasures
// pattern per code and one beyond-capability mis-correction.
//
// The fast-vs-legacy and backend-vs-scalar differentials compare two live
// implementations, so a change that moves both sides together (generator
// polynomial, field representation, position convention, outcome
// counting) passes them silently; these constants do not move. Every case
// runs through the legacy reference and, under every supported GF backend,
// through the per-word and the batch-plane APIs.
//
// The mis-correction is exact by construction: encoding the unit dataword
// e_{k-1} yields the generator polynomial g itself, a codeword of minimum
// weight 2t+1 on positions k-1..n-1. Adding t+1 of its symbols to a
// codeword c leaves the word at distance t from c + g, so a
// bounded-distance decoder must return c + g: kCorrected, valid and wrong.
//
// Lives in the `codec` test binary because force_backend() swaps the
// process-wide kernel selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gf/simd_mul.h"
#include "rs/reed_solomon.h"

namespace rsmem::rs {
namespace {

namespace simd = gf::simd;

// splitmix64: a self-contained stream, independent of the library's RNG.
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<Element> from_hex(const std::string& hex) {
  std::vector<Element> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<Element>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

struct Golden {
  unsigned n, k;
  std::uint64_t seed;
  const char* parity;  // hex, n-k symbols of the seeded dataword's codeword
  // Within capability: nonzero XOR masks at `errors`, then arbitrary bytes
  // at `erasures`, both drawn from the stream after the dataword.
  std::vector<unsigned> errors, erasures;
  const char* miscorrected;  // hex, the mis-corrected word from k-1 on
};

const Golden kGoldens[] = {
    {18, 16, 0x1816, "8972", {}, {3, 17}, "798f7a"},
    {36, 16, 0x3616, "7fb03fedf5512a5679a53ee03a8185c4f1b0e0de",
     {0, 7, 15, 22, 30, 35}, {2, 9, 11, 18, 19, 26, 28, 33},
     "13526eecbd94b40d32cb0bc96be3c636528b444687"},
    {255, 223, 0xFFDF,
     "c2026f587fff78cdc5517b3346217d5c6cbae30c64c84c4aa0fb51650dbc1790",
     {1, 40, 77, 100, 150, 190, 222, 223, 240, 254},
     {0, 10, 20, 60, 99, 130, 160, 200, 224, 230, 245, 250},
     "4a2a1fd26af10990c2ee03dfdd47bf702bf25a65efb66b7e2188e039981553cfbd"},
};

struct Case {
  std::vector<Element> received, want_word;
  std::vector<unsigned> erasures;
  DecodeOutcome want;
};

// The golden dataword and its decode cases: the clean codeword, the
// errors+erasures pattern, and the mis-correction.
std::vector<Case> expand(const ReedSolomon& code, const Golden& g,
                         std::vector<Element>& data) {
  std::uint64_t state = g.seed;
  data.assign(g.k, 0);
  for (Element& d : data) d = static_cast<Element>(splitmix(state) & 0xFF);
  std::vector<Element> codeword = data;
  for (const Element p : from_hex(g.parity)) codeword.push_back(p);

  std::vector<Case> cases;
  cases.push_back({codeword, codeword, {}, {DecodeStatus::kNoError, 0, 0}});
  std::vector<Element> word = codeword;
  for (const unsigned q : g.errors) {
    word[q] ^= static_cast<Element>(splitmix(state) % 255 + 1);
  }
  for (const unsigned q : g.erasures) {
    word[q] = static_cast<Element>(splitmix(state) & 0xFF);
  }
  cases.push_back({word, codeword, g.erasures,
                   {DecodeStatus::kCorrected,
                    static_cast<unsigned>(g.errors.size()),
                    static_cast<unsigned>(g.erasures.size())}});

  std::vector<Element> unit(g.k, 0);
  unit[g.k - 1] = 1;
  std::vector<Element> generator(g.n);
  code.encode_legacy(unit, generator);
  word = codeword;
  for (unsigned q = 0, added = 0; added <= code.t(); ++q) {
    if (generator[q] == 0) continue;
    word[q] ^= generator[q];
    ++added;
  }
  std::vector<Element> miscorrected = codeword;
  const std::vector<Element> tail = from_hex(g.miscorrected);
  std::copy(tail.begin(), tail.end(), miscorrected.begin() + (g.k - 1));
  cases.push_back(
      {word, miscorrected, {}, {DecodeStatus::kCorrected, code.t(), 0}});
  return cases;
}

void expect_decoded(const DecodeOutcome& got, std::span<const Element> word,
                    const Case& c, const std::string& tag) {
  EXPECT_EQ(got.status, c.want.status) << tag;
  EXPECT_EQ(got.errors_corrected, c.want.errors_corrected) << tag;
  EXPECT_EQ(got.erasures_corrected, c.want.erasures_corrected) << tag;
  EXPECT_TRUE(std::equal(word.begin(), word.end(), c.want_word.begin(),
                         c.want_word.end()))
      << tag;
}

TEST(GoldenVectors, EveryPathAndBackendMatchesGoldenBytes) {
  const simd::Backend prev = simd::active().backend;
  for (const Golden& g : kGoldens) {
    const std::string code_tag = "n=" + std::to_string(g.n);
    const ReedSolomon legacy{g.n, g.k, 8};
    std::vector<Element> data;
    const std::vector<Case> cases = expand(legacy, g, data);
    std::vector<Element> cw(g.n);
    legacy.encode_legacy(data, cw);
    EXPECT_EQ(cw, cases[0].want_word) << "legacy " << code_tag;
    for (const Case& c : cases) {
      std::vector<Element> word = c.received;
      expect_decoded(legacy.decode_legacy(word, c.erasures), word, c,
                     "legacy " + code_tag);
    }
    for (const simd::Backend b : simd::kAllBackends) {
      if (!simd::force_backend(b)) continue;  // unsupported on this host
      // A fresh code per backend, so its lazily built kernel tables come
      // from the backend under test.
      const ReedSolomon code{g.n, g.k, 8};
      const std::string tag = simd::to_string(b) + (" " + code_tag);
      DecoderWorkspace ws;
      EXPECT_EQ(code.encode(data), cases[0].want_word) << tag;
      for (const Case& c : cases) {
        std::vector<Element> word = c.received;
        expect_decoded(code.decode(ws, word, c.erasures), word, c, tag);
      }

      // Batch planes, every case twice: wide enough for the SoA staging.
      const std::size_t count = 2 * cases.size();
      std::vector<Element> data_plane, word_plane, cw_plane(count * g.n);
      std::vector<std::uint8_t> flags(count * g.n, 0);
      for (std::size_t w = 0; w < count; ++w) {
        const Case& c = cases[w % cases.size()];
        data_plane.insert(data_plane.end(), data.begin(), data.end());
        word_plane.insert(word_plane.end(), c.received.begin(),
                          c.received.end());
        for (const unsigned q : c.erasures) flags[w * g.n + q] = 1;
      }
      code.encode_batch(ws, data_plane, cw_plane);
      std::vector<DecodeOutcome> outcomes(count);
      code.decode_batch(ws, word_plane, outcomes, flags);
      for (std::size_t w = 0; w < count; ++w) {
        const std::span<const Element> encoded{cw_plane.data() + w * g.n,
                                               g.n};
        EXPECT_TRUE(std::equal(encoded.begin(), encoded.end(),
                               cases[0].want_word.begin()))
            << tag << " encode_batch";
        expect_decoded(outcomes[w], {word_plane.data() + w * g.n, g.n},
                       cases[w % cases.size()], tag + " decode_batch");
      }
    }
  }
  simd::force_backend(prev);
}

}  // namespace
}  // namespace rsmem::rs
