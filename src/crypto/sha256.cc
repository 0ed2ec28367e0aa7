#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_kernels.h"

namespace clandag {

Sha256::Sha256() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

void Sha256::ProcessBlocks(const uint8_t* data, size_t nblocks) {
  sha256_kernels::Active()(state_.data(), data, nblocks);
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) {
    return;
  }
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t take = std::min<size_t>(64 - buffer_len_, len);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < 64) {
      return;
    }
    ProcessBlocks(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the input; the tail waits in the buffer.
  const size_t nblocks = len / 64;
  if (nblocks > 0) {
    ProcessBlocks(data, nblocks);
    data += 64 * nblocks;
    len -= 64 * nblocks;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

Sha256::DigestBytes Sha256::Finalize() {
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  // The 8-byte length trailer needs bytes 56..63 of the last block; when the
  // 0x80 marker landed past byte 56, pad out this block and add one more.
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    ProcessBlocks(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (8 * (7 - i)));
  }
  ProcessBlocks(buffer_.data(), 1);
  buffer_len_ = 0;

  DigestBytes out;
  for (size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Sha256::DigestBytes Sha256::Hash(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finalize();
}

}  // namespace clandag
