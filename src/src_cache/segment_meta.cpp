#include "src_cache/segment_meta.hpp"

#include <cstring>

namespace srcache::src {

namespace {

// Little-endian stores into a buffer sized up front.
class Writer {
 public:
  explicit Writer(u8* p) : p_(p) {}
  void u64v(u64 v) {
    for (int i = 0; i < 8; ++i) *p_++ = static_cast<u8>(v >> (8 * i));
  }
  void u32v(u32 v) {
    for (int i = 0; i < 4; ++i) *p_++ = static_cast<u8>(v >> (8 * i));
  }

 private:
  u8* p_;
};

class Reader {
 public:
  explicit Reader(const std::vector<u8>& buf) : buf_(buf) {}
  bool u64v(u64* v) {
    if (pos_ + 8 > buf_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i)
      *v |= static_cast<u64>(buf_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return true;
  }
  bool u32v(u32* v) {
    if (pos_ + 4 > buf_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i)
      *v |= static_cast<u32>(buf_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return true;
  }
  [[nodiscard]] size_t pos() const { return pos_; }

 private:
  const std::vector<u8>& buf_;
  size_t pos_ = 0;
};

// Fills the buffer's last 4 bytes with the CRC-32C of everything before.
void store_crc(std::vector<u8>& buf) {
  const size_t body = buf.size() - 4;
  Writer(buf.data() + body)
      .u32v(common::crc32c(std::span<const u8>(buf.data(), body)));
}

bool check_crc(const std::vector<u8>& buf) {
  if (buf.size() < 4) return false;
  const u32 stored = static_cast<u32>(buf[buf.size() - 4]) |
                     static_cast<u32>(buf[buf.size() - 3]) << 8 |
                     static_cast<u32>(buf[buf.size() - 2]) << 16 |
                     static_cast<u32>(buf[buf.size() - 1]) << 24;
  const u32 actual =
      common::crc32c(std::span<const u8>(buf.data(), buf.size() - 4));
  return stored == actual;
}

// Sizes before the trailing CRC: the segment header is magic, generation,
// sg, seg, flags, count (u64 u64 u32 u32 u32 u32), then 16 bytes per entry;
// the superblock is u64 u64 u32 u64 u64 u64.
constexpr size_t kMetaHeaderBytes = 32;
constexpr size_t kMetaFlagsOffset = 24;
constexpr u32 kTailFlag = 4u;
constexpr size_t kSuperblockBytes = 44;

}  // namespace

blockdev::Payload SegmentMeta::serialize() const {
  auto buf = std::make_shared<std::vector<u8>>(kMetaHeaderBytes +
                                               entries.size() * 16 + 4);
  Writer w(buf->data());
  w.u64v(kSegmentMetaMagic);
  w.u64v(generation);
  w.u32v(sg);
  w.u32v(seg);
  w.u32v((dirty ? 1u : 0u) | (has_parity ? 2u : 0u) |
         (is_tail ? kTailFlag : 0u) | (static_cast<u32>(parity_col) << 8));
  w.u32v(static_cast<u32>(entries.size()));
  for (const Entry& e : entries) {
    w.u64v(e.lba);
    w.u32v(e.crc);
    w.u32v(e.tenant);
  }
  store_crc(*buf);
  return buf;
}

blockdev::Payload SegmentMeta::tail_of(const blockdev::Payload& head) {
  auto buf = std::make_shared<std::vector<u8>>(*head);
  buf->at(kMetaFlagsOffset) |= static_cast<u8>(kTailFlag);
  store_crc(*buf);
  return buf;
}

std::optional<SegmentMeta> SegmentMeta::deserialize(
    const blockdev::Payload& p) {
  if (!p || !check_crc(*p)) return std::nullopt;
  Reader r(*p);
  u64 magic = 0;
  SegmentMeta m;
  u32 flags = 0, count = 0;
  if (!r.u64v(&magic) || magic != kSegmentMetaMagic) return std::nullopt;
  if (!r.u64v(&m.generation) || !r.u32v(&m.sg) || !r.u32v(&m.seg) ||
      !r.u32v(&flags) || !r.u32v(&count)) {
    return std::nullopt;
  }
  m.dirty = (flags & 1u) != 0;
  m.has_parity = (flags & 2u) != 0;
  m.is_tail = (flags & 4u) != 0;
  m.parity_col = static_cast<u8>(flags >> 8);
  m.entries.resize(count);
  for (u32 i = 0; i < count; ++i) {
    if (!r.u64v(&m.entries[i].lba) || !r.u32v(&m.entries[i].crc) ||
        !r.u32v(&m.entries[i].tenant)) {
      return std::nullopt;
    }
  }
  return m;
}

blockdev::Payload Superblock::serialize() const {
  auto buf = std::make_shared<std::vector<u8>>(kSuperblockBytes + 4);
  Writer w(buf->data());
  w.u64v(kSuperblockMagic);
  w.u64v(create_seq);
  w.u32v(num_ssds);
  w.u64v(erase_group_bytes);
  w.u64v(chunk_bytes);
  w.u64v(region_bytes_per_ssd);
  store_crc(*buf);
  return buf;
}

std::optional<Superblock> Superblock::deserialize(const blockdev::Payload& p) {
  if (!p || !check_crc(*p)) return std::nullopt;
  Reader r(*p);
  u64 magic = 0;
  Superblock s;
  if (!r.u64v(&magic) || magic != kSuperblockMagic) return std::nullopt;
  if (!r.u64v(&s.create_seq) || !r.u32v(&s.num_ssds) ||
      !r.u64v(&s.erase_group_bytes) || !r.u64v(&s.chunk_bytes) ||
      !r.u64v(&s.region_bytes_per_ssd)) {
    return std::nullopt;
  }
  return s;
}

}  // namespace srcache::src
