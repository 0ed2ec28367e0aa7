#include "crypto/sha256_kernels.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace clandag::sha256_kernels {

namespace {

alignas(16) constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
};

inline uint32_t Rotr(uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)

bool CpuHasShaNi() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  const bool sha = (ebx & bit_SHA) != 0;
  return ssse3 && sse41 && sha;
}

// Intel SHA extensions: each sha256rnds2 does two rounds on the state held
// as (ABEF, CDGH); sha256msg1/msg2 compute the message schedule four words
// at a time.
#define CLANDAG_SHANI __attribute__((target("sha,sse4.1")))

// Rounds 4j..4j+3 on message words `w` (W[4j..4j+3]).
CLANDAG_SHANI inline void FourRounds(__m128i& abef, __m128i& cdgh, __m128i w, int j) {
  __m128i wk =
      _mm_add_epi32(w, _mm_load_si128(reinterpret_cast<const __m128i*>(kRoundConstants + 4 * j)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  wk = _mm_shuffle_epi32(wk, 0x0E);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
}

// W[t..t+3] from W[t-16..], W[t-12..], W[t-8..] and W[t-4..].
CLANDAG_SHANI inline __m128i NextWords(__m128i w16, __m128i w12, __m128i w8, __m128i w4) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
  return _mm_sha256msg2_epu32(t, w4);
}

// Message words W[4i..4i+3] of a block, byte-swapped: the message is big-endian.
CLANDAG_SHANI inline __m128i LoadWords(const uint8_t* block, int i) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
                          byte_swap);
}

CLANDAG_SHANI void ShaNiKernel(uint32_t state[8], const uint8_t* data, size_t nblocks) {
  // state[0..7] = A..H  ->  abef = {F, E, B, A}, cdgh = {H, G, D, C} (low lane first).
  __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  __m128i cdgh =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = LoadWords(data, 0);
    __m128i w1 = LoadWords(data, 1);
    __m128i w2 = LoadWords(data, 2);
    __m128i w3 = LoadWords(data, 3);
    FourRounds(abef, cdgh, w0, 0);
    FourRounds(abef, cdgh, w1, 1);
    FourRounds(abef, cdgh, w2, 2);
    FourRounds(abef, cdgh, w3, 3);
    for (int j = 4; j < 16; j += 4) {
      w0 = NextWords(w0, w1, w2, w3);
      FourRounds(abef, cdgh, w0, j);
      w1 = NextWords(w1, w2, w3, w0);
      FourRounds(abef, cdgh, w1, j + 1);
      w2 = NextWords(w2, w3, w0, w1);
      FourRounds(abef, cdgh, w2, j + 2);
      w3 = NextWords(w3, w0, w1, w2);
      FourRounds(abef, cdgh, w3, j + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(cdgh, tmp, 8));
}

#undef CLANDAG_SHANI

#endif  // defined(__x86_64__)

Kernel Select() {
  const Kernel shani = ShaNi();
  return shani != nullptr ? shani : Scalar;
}

// Chosen during static initialization. Hashing from another translation
// unit's static initializer reaches Active() first and gets the same answer.
[[maybe_unused]] const Kernel kSelectedAtInit = Active();

}  // namespace

void Scalar(uint32_t state[8], const uint8_t* data, size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0];
    uint32_t b = state[1];
    uint32_t c = state[2];
    uint32_t d = state[3];
    uint32_t e = state[4];
    uint32_t f = state[5];
    uint32_t g = state[6];
    uint32_t h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Kernel ShaNi() {
#if defined(__x86_64__)
  return CpuHasShaNi() ? ShaNiKernel : nullptr;
#else
  return nullptr;
#endif
}

Kernel Active() {
  static const Kernel kernel = Select();
  return kernel;
}

const char* ActiveName() {
  return Active() == Scalar ? "scalar" : "sha-ni";
}

}  // namespace clandag::sha256_kernels
