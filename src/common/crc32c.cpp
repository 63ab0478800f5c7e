#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace srcache::common {
namespace {

constexpr u32 kPoly = 0x82F63B78u;  // reversed Castagnoli polynomial

std::array<u32, 256> make_table() {
  std::array<u32, 256> t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[i] = c;
  }
  return t;
}

const std::array<u32, 256>& table() {
  static const std::array<u32, 256> t = make_table();
  return t;
}

#if defined(__x86_64__)
// The SSE4.2 CRC32 instruction computes CRC-32C (same polynomial, same
// reflected bit order) eight bytes at a time.
__attribute__((target("sse4.2"))) u32 crc32c_sse42(std::span<const u8> data,
                                                   u32 seed) {
  u64 c = seed ^ 0xFFFFFFFFu;
  const u8* p = data.data();
  size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    u64 word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  u32 c32 = static_cast<u32>(c);
  for (; n > 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}
#endif

using CrcFn = u32 (*)(std::span<const u8>, u32);

CrcFn select_crc32c() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return detail::crc32c_portable;
}

}  // namespace

namespace detail {

u32 crc32c_portable(std::span<const u8> data, u32 seed) {
  const auto& t = table();
  u32 c = seed ^ 0xFFFFFFFFu;
  for (u8 b : data) c = t[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace detail

u32 crc32c(std::span<const u8> data, u32 seed) {
  static const CrcFn impl = select_crc32c();
  return impl(data, seed);
}

}  // namespace srcache::common
