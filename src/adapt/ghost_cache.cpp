#include "adapt/ghost_cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace srcache::adapt {

namespace {

// SplitMix64 finalizer: a well-mixed stateless hash, so spatial sampling is
// deterministic across runs and uncorrelated with Zipf rank scrambling.
u64 mix(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr u64 kHashMod = 1ull << 24;

}  // namespace

GhostCache::GhostCache(const Config& cfg) : cfg_(cfg) {
  if (cfg_.sampling_rate <= 0.0 || cfg_.sampling_rate > 1.0)
    throw std::invalid_argument("GhostCache: sampling_rate in (0, 1]");
  if (cfg_.sizes.empty())
    throw std::invalid_argument("GhostCache: no candidate sizes");
  if (!std::is_sorted(cfg_.sizes.begin(), cfg_.sizes.end()) ||
      cfg_.sizes.front() == 0)
    throw std::invalid_argument("GhostCache: sizes must ascend from > 0");
  if (cfg_.decay < 0.0 || cfg_.decay > 1.0)
    throw std::invalid_argument("GhostCache: decay in [0, 1]");

  sampled_sizes_.reserve(cfg_.sizes.size());
  u64 prev = 0;
  for (const u64 s : cfg_.sizes) {
    // Scale to ghost space; keep the ladder strictly ascending so every
    // region has width >= 1 even after aggressive sampling.
    u64 scaled = static_cast<u64>(static_cast<double>(s) * cfg_.sampling_rate);
    scaled = std::max<u64>(scaled, prev + 1);
    sampled_sizes_.push_back(scaled);
    prev = scaled;
  }
  capacity_ = std::min<u64>(sampled_sizes_.back(), cfg_.max_entries);
  markers_.assign(sampled_sizes_.size(), lru_.end());
  count_.assign(sampled_sizes_.size(), 0);
  hits_.assign(sampled_sizes_.size(), 0.0);
}

bool GhostCache::sampled(u64 lba) const {
  if (cfg_.sampling_rate >= 1.0) return true;
  const u64 threshold =
      static_cast<u64>(cfg_.sampling_rate * static_cast<double>(kHashMod));
  return (mix(lba) % kHashMod) < threshold;
}

// Restores the region-capacity invariant after one element entered region
// `first_region` from above: each overfull region demotes its deepest
// element to the next region, cascading; an overflow past the last region
// (or the entry cap) evicts the global LRU tail.
void GhostCache::demote_overflow(u32 first_region) {
  const u32 last = static_cast<u32>(sampled_sizes_.size()) - 1;
  for (u32 k = first_region; k <= last; ++k) {
    const u64 width = k == 0 ? sampled_sizes_[0]
                             : sampled_sizes_[k] - sampled_sizes_[k - 1];
    if (count_[k] <= width) return;  // no overflow: deeper regions untouched
    List::iterator deepest = markers_[k];
    if (k == last) break;  // falls off the ladder: evict below
    markers_[k] = std::prev(deepest);  // count_[k] > width >= 1
    deepest->region = k + 1;
    count_[k]--;
    if (count_[k + 1] == 0) markers_[k + 1] = deepest;
    count_[k + 1]++;
  }
  // Last region overflowed: drop the global tail.
  List::iterator tail = std::prev(lru_.end());
  const u32 r = tail->region;
  if (markers_[r] == tail)
    markers_[r] = count_[r] > 1 ? std::prev(tail) : lru_.end();
  count_[r]--;
  index_.erase(tail->lba);
  lru_.pop_back();
}

// Moves an existing node to the MRU position (region 0), keeping markers
// consistent. The caller fixes region counts/overflow afterwards.
void GhostCache::touch_front(List::iterator it) {
  const u32 r = it->region;
  if (markers_[r] == it)
    markers_[r] = count_[r] > 1 ? std::prev(it) : lru_.end();
  lru_.splice(lru_.begin(), lru_, it);
  count_[r]--;
  it->region = 0;
  count_[0]++;
  if (count_[0] == 1) markers_[0] = lru_.begin();
}

void GhostCache::access(u64 lba) {
  if (!sampled(lba)) return;
  const auto found = index_.find(lba);
  if (found != index_.end()) {
    const u32 r = found->second->region;
    hits_[r] += 1.0;
    touch_front(found->second);
    demote_overflow(0);
    return;
  }
  misses_ += 1.0;
  lru_.push_front(Node{lba, 0});
  index_.emplace(lba, lru_.begin());
  count_[0]++;
  if (count_[0] == 1) markers_[0] = lru_.begin();
  if (index_.size() > capacity_) {
    // The hard budget can be tighter than the ladder: evict the tail first,
    // then let the cascade settle region counts.
    List::iterator tail = std::prev(lru_.end());
    const u32 tr = tail->region;
    if (markers_[tr] == tail)
      markers_[tr] = count_[tr] > 1 ? std::prev(tail) : lru_.end();
    count_[tr]--;
    index_.erase(tail->lba);
    lru_.pop_back();
  }
  demote_overflow(0);
}

GhostCache::Mrc GhostCache::mrc() const {
  Mrc out;
  out.sizes = cfg_.sizes;
  out.miss_ratio.resize(cfg_.sizes.size(), 1.0);
  double accesses = misses_;
  for (const double h : hits_) accesses += h;
  out.accesses = accesses;
  if (accesses <= 0.0) return out;  // all-miss prior until data arrives
  double cum = 0.0;
  for (size_t k = 0; k < hits_.size(); ++k) {
    cum += hits_[k];
    out.miss_ratio[k] = 1.0 - cum / accesses;
  }
  return out;
}

double GhostCache::Mrc::hit_ratio_at(u64 size_blocks) const {
  if (sizes.empty() || accesses <= 0.0) return 0.0;
  if (size_blocks == 0) return 0.0;
  if (size_blocks <= sizes.front()) {
    // Linear ramp from (0, 0) to the first ladder point.
    const double h0 = 1.0 - miss_ratio.front();
    return h0 * static_cast<double>(size_blocks) /
           static_cast<double>(sizes.front());
  }
  if (size_blocks >= sizes.back()) return 1.0 - miss_ratio.back();
  const auto hi = std::upper_bound(sizes.begin(), sizes.end(), size_blocks);
  const size_t j = static_cast<size_t>(hi - sizes.begin());
  const double h_lo = 1.0 - miss_ratio[j - 1];
  const double h_hi = 1.0 - miss_ratio[j];
  const double span = static_cast<double>(sizes[j] - sizes[j - 1]);
  const double frac =
      static_cast<double>(size_blocks - sizes[j - 1]) / span;
  return h_lo + (h_hi - h_lo) * frac;
}

void GhostCache::new_epoch() {
  for (double& h : hits_) h *= cfg_.decay;
  misses_ *= cfg_.decay;
}

size_t GhostCache::memory_bytes() const {
  // One list node (lba + region + two links) and one hash slot per entry,
  // plus the fixed per-region vectors.
  const size_t per_entry = sizeof(Node) + 2 * sizeof(void*) +
                           sizeof(std::pair<u64, List::iterator>);
  return index_.size() * per_entry +
         sampled_sizes_.size() *
             (sizeof(u64) * 2 + sizeof(double) + sizeof(List::iterator));
}

}  // namespace srcache::adapt
