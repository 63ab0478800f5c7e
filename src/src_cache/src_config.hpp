// SRC configuration — the design space of the paper's Table 7.
#pragma once

#include <stdexcept>
#include <string>

#include "common/types.hpp"
#include "policy/policy.hpp"
#include "sim/time.hpp"

namespace srcache::src {

// Free-space reclamation policy (§4.2). S2D destages dirty victims to
// primary storage and drops clean ones; Sel-GC keeps hot data by copying
// SSD-to-SSD while utilization is below UMAX.
enum class GcPolicy { kS2D, kSelGc };

// Victim segment-group selection (§4.2). kCostBenefit is our
// implementation of the paper's §6 future-work direction: the classic LFS
// age x free-space benefit ratio, which beats pure Greedy when hot and
// cold SGs coexist.
enum class VictimPolicy { kFifo, kGreedy, kCostBenefit };

// Stripe organisation of a segment across the SSD array (§5.2, Table 10;
// RAID-1 is our extension for parity with the Fig. 1 baseline set).
enum class SrcRaidLevel { kRaid0, kRaid1, kRaid4, kRaid5 };

// Clean-data redundancy (§4.3): Parity-for-Clean writes parity for clean
// segments too; No-Parity-for-Clean reclaims that space since clean blocks
// can always be refetched from primary storage.
enum class CleanRedundancy { kPC, kNPC };

// flush issue points (§4.1): after every segment write, or only when the
// active segment group fills.
enum class FlushControl { kPerSegment, kPerSegmentGroup };

const char* to_string(GcPolicy p);
const char* to_string(VictimPolicy p);
const char* to_string(SrcRaidLevel l);
const char* to_string(CleanRedundancy c);
const char* to_string(FlushControl f);

struct SrcConfig {
  u32 num_ssds = 4;

  // Per-SSD region granted to one segment group; matched to the device
  // erase group size (256 MiB for the prototype's SSDs, Fig. 2).
  u64 erase_group_bytes = 256 * MiB;
  // Per-SSD share of one segment (512 KiB in the paper: the largest unit
  // transferable to the device in one request).
  u64 chunk_bytes = 512 * KiB;
  // Per-SSD cache region size; region/erase_group = segment-group count
  // (the paper uses 18 SGs: 18 GB of cache over 4 SSDs).
  u64 region_bytes_per_ssd = 4608ull * MiB;
  // First block of the region on each SSD.
  u64 region_start_block = 0;

  SrcRaidLevel raid = SrcRaidLevel::kRaid5;
  CleanRedundancy clean_redundancy = CleanRedundancy::kNPC;
  GcPolicy gc = GcPolicy::kSelGc;
  VictimPolicy victim = VictimPolicy::kFifo;
  double umax = 0.90;
  FlushControl flush_control = FlushControl::kPerSegmentGroup;

  // Replacement/admission scheme (src/policy): which clean blocks GC keeps
  // and which read-miss fills are cached. The defaults reproduce the
  // paper's hard-coded behaviour exactly; the REPRO_POLICY/REPRO_ADMIT
  // knobs select alternatives for the frontier bake-off.
  policy::EvictionKind eviction = policy::EvictionKind::kPaper;
  policy::AdmissionKind admission = policy::AdmissionKind::kAlways;

  // Partial-segment timeout: seal a non-empty dirty segment buffer if no
  // write arrives for this long. The paper quotes 20 us (§4.1), which at
  // our request granularity would seal almost every buffer partially and
  // waste most slots; 10 ms preserves the intent (a bounded loss window)
  // without the artifact. EXPERIMENTS.md records this deviation.
  sim::SimTime twait = 10 * sim::kMs;

  // Verify per-block CRCs on cache-hit reads (§4.1 silent-corruption
  // handling). Disable for runs whose devices don't track content.
  bool verify_checksums = true;

  // Segment writes allowed in flight before write acks are throttled.
  u32 max_inflight_segment_writes = 4;
  // Free segment groups maintained by GC.
  u32 free_sg_reserve = 2;

  // --- derived geometry -----------------------------------------------

  [[nodiscard]] u64 eg_blocks() const { return erase_group_bytes / kBlockSize; }
  [[nodiscard]] u64 chunk_blocks() const { return chunk_bytes / kBlockSize; }
  [[nodiscard]] u64 slots_per_chunk() const {
    return chunk_blocks() - 2;  // minus MS, ME
  }
  [[nodiscard]] u64 segments_per_sg() const {
    return eg_blocks() / chunk_blocks();
  }
  [[nodiscard]] u64 sg_count() const {
    return region_bytes_per_ssd / erase_group_bytes;
  }

  [[nodiscard]] u64 data_cols(bool with_parity) const {
    switch (raid) {
      case SrcRaidLevel::kRaid0: return num_ssds;
      case SrcRaidLevel::kRaid1: return num_ssds / 2;
      case SrcRaidLevel::kRaid4:
      case SrcRaidLevel::kRaid5: return with_parity ? num_ssds - 1 : num_ssds;
    }
    return 0;
  }

  // Whether segments of the given type carry redundancy.
  [[nodiscard]] bool segment_has_parity(bool dirty) const {
    if (raid == SrcRaidLevel::kRaid0) return false;
    if (raid == SrcRaidLevel::kRaid1) return true;  // mirroring
    return dirty || clean_redundancy == CleanRedundancy::kPC;
  }

  // Data slots per segment for the given segment type.
  [[nodiscard]] u64 segment_data_slots(bool dirty) const {
    if (raid == SrcRaidLevel::kRaid1)
      return data_cols(true) * slots_per_chunk();
    const bool parity = segment_has_parity(dirty);
    return (parity ? num_ssds - 1 : num_ssds) * slots_per_chunk();
  }

  // Conservative cache data capacity in blocks (all-dirty segments), used
  // for the UMAX utilization threshold. SG 0 holds the superblock.
  [[nodiscard]] u64 capacity_blocks() const {
    return (sg_count() - 1) * segments_per_sg() * segment_data_slots(true);
  }

  void validate() const {
    if (num_ssds < 2) throw std::invalid_argument("SRC needs >= 2 SSDs");
    if (raid == SrcRaidLevel::kRaid1 && num_ssds % 2 != 0)
      throw std::invalid_argument("SRC RAID-1 needs an even SSD count");
    if (chunk_bytes % kBlockSize != 0 || chunk_blocks() < 3)
      throw std::invalid_argument("chunk must hold MS, ME and >= 1 data block");
    if (erase_group_bytes % chunk_bytes != 0)
      throw std::invalid_argument(
          "erase group must be a multiple of the chunk");
    if (region_bytes_per_ssd % erase_group_bytes != 0 || sg_count() < 3)
      throw std::invalid_argument("region must hold >= 3 segment groups");
    if (umax <= 0.0 || umax > 1.0)
      throw std::invalid_argument("umax in (0, 1]");
  }

  [[nodiscard]] std::string describe() const;
};

}  // namespace srcache::src
