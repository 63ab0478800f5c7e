// On-SSD segment metadata blocks (MS at the head, ME at the tail of each
// per-SSD chunk, §4.1 "Metadata management"). An extension of the LFS
// summary block: checksummed, versioned, and carrying per-block LBA and
// content checksums so that recovery and silent-corruption detection work
// from the SSDs alone.
#pragma once

#include <optional>
#include <vector>

#include "block/block_device.hpp"
#include "common/crc32c.hpp"
#include "common/types.hpp"

namespace srcache::src {

inline constexpr u64 kSegmentMetaMagic = 0x5352435F4D455441ull;  // "SRC_META"
inline constexpr u64 kSuperblockMagic = 0x5352435F53555052ull;   // "SRC_SUPR"
inline constexpr u64 kDeadSlot = ~0ull;  // slot holds no live block

struct SegmentMeta {
  u64 generation = 0;
  u32 sg = 0;
  u32 seg = 0;
  bool dirty = false;       // segment type
  bool has_parity = false;
  u8 parity_col = 0;        // device index of the parity column
  bool is_tail = false;     // MS (false) or ME (true)

  struct Entry {
    u64 lba = kDeadSlot;    // primary-storage block, kDeadSlot if the slot
                            // was unused (partial segment) or already dead
    u32 crc = 0;            // CRC-32C of the block's content tag
    u32 tenant = 0;         // owning tenant, so per-tenant accounting
                            // survives crash recovery
  };
  std::vector<Entry> entries;  // one per data slot of the whole segment

  // Serializes with a trailing CRC-32C over everything before it.
  [[nodiscard]] blockdev::Payload serialize() const;
  // The ME image of a serialized MS: the same bytes with the tail flag set
  // and the CRC recomputed (byte-identical to serialize() with is_tail).
  [[nodiscard]] static blockdev::Payload tail_of(const blockdev::Payload& head);

  // Deserializes and verifies magic + checksum; nullopt if invalid/corrupt.
  static std::optional<SegmentMeta> deserialize(const blockdev::Payload& p);
};

struct Superblock {
  u64 create_seq = 0;
  u32 num_ssds = 0;
  u64 erase_group_bytes = 0;
  u64 chunk_bytes = 0;
  u64 region_bytes_per_ssd = 0;

  [[nodiscard]] blockdev::Payload serialize() const;
  static std::optional<Superblock> deserialize(const blockdev::Payload& p);
};

}  // namespace srcache::src
