// SHA-256 compression kernels behind Sha256::ProcessBlocks.
//
// Internal to crypto/: Sha256 picks one kernel per process from the CPU's
// features; tests call both directly to check they agree. Not a switch —
// nothing outside Sha256 selects a kernel.

#ifndef CLANDAG_CRYPTO_SHA256_KERNELS_H_
#define CLANDAG_CRYPTO_SHA256_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace clandag::sha256_kernels {

// Compresses `nblocks` consecutive 64-byte blocks of `data` into `state`.
using Kernel = void (*)(uint32_t state[8], const uint8_t* data, size_t nblocks);

// Portable FIPS 180-4 kernel; runs on every host.
void Scalar(uint32_t state[8], const uint8_t* data, size_t nblocks);

// The x86-64 SHA extensions kernel, or nullptr when this CPU (or build
// target) lacks SHA, SSSE3 or SSE4.1.
Kernel ShaNi();

// The kernel Sha256 uses, chosen once, and its name ("sha-ni" or "scalar").
Kernel Active();
const char* ActiveName();

}  // namespace clandag::sha256_kernels

#endif  // CLANDAG_CRYPTO_SHA256_KERNELS_H_
