#include "prefetch/prefetch_predictor.h"

#include <algorithm>
#include <cassert>

namespace sdm {

const char* ToString(PrefetchStrategy s) {
  switch (s) {
    case PrefetchStrategy::kHotSet: return "hot_set";
    case PrefetchStrategy::kNextBlock: return "next_block";
  }
  return "unknown";
}

std::unique_ptr<PrefetchPredictor> MakePredictor(PrefetchStrategy strategy,
                                                 const PredictorGeometry& geometry) {
  switch (strategy) {
    case PrefetchStrategy::kHotSet:
      return std::make_unique<HotSetPredictor>(geometry);
    case PrefetchStrategy::kNextBlock:
      return std::make_unique<NextBlockPredictor>(geometry);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// HotSetPredictor
// ---------------------------------------------------------------------------

HotSetPredictor::HotSetPredictor(const PredictorGeometry& geometry)
    : geometry_(geometry) {
  assert(geometry.row_bytes > 0);
}

void HotSetPredictor::RecordAccess(RowIndex row) {
  weights_[row] += 1.0;
  total_weight_ += 1.0;
  ++accesses_since_rebuild_;
  if (++accesses_since_decay_ >= kDecayEvery || weights_.size() > kMaxTracked) {
    DecayAndPrune();
    ranking_valid_ = false;
  }
}

void HotSetPredictor::DecayAndPrune() {
  accesses_since_decay_ = 0;
  for (auto it = weights_.begin(); it != weights_.end();) {
    it->second *= kDecayFactor;
    if (it->second < kPruneBelow) {
      it = weights_.erase(it);
    } else {
      ++it;
    }
  }
  // Pathological flat streams can survive pruning; keep the map bounded by
  // decaying again (each pass halves every weight, so this terminates).
  while (weights_.size() > kMaxTracked) {
    for (auto it = weights_.begin(); it != weights_.end();) {
      it->second *= kDecayFactor;
      if (it->second < kPruneBelow) {
        it = weights_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Refold the total in row order, NOT map order: float addition is
  // non-associative, so a hash-ordered sum would leak the container's
  // iteration order (which differs across standard libraries) into every
  // confidence — breaking cross-platform byte-identity of prefetch
  // decisions and everything downstream of them.
  std::vector<double> by_row(weights_.size());
  {
    std::vector<RowIndex> rows;
    rows.reserve(weights_.size());
    for (const auto& [row, w] : weights_) rows.push_back(row);
    std::sort(rows.begin(), rows.end());
    for (size_t i = 0; i < rows.size(); ++i) by_row[i] = weights_[rows[i]];
  }
  total_weight_ = 0;
  for (double w : by_row) total_weight_ += w;
}

void HotSetPredictor::RebuildRanking(size_t max) {
  ranking_.clear();
  ranking_.reserve(weights_.size());
  for (const auto& [row, w] : weights_) {
    ranking_.push_back(PrefetchCandidate{row, w / total_weight_});
  }
  const size_t k = std::min(max, ranking_.size());
  std::partial_sort(ranking_.begin(), ranking_.begin() + static_cast<std::ptrdiff_t>(k),
                    ranking_.end(),
                    [](const PrefetchCandidate& a, const PrefetchCandidate& b) {
                      return a.confidence > b.confidence ||
                             (a.confidence == b.confidence && a.row < b.row);
                    });
  ranking_.resize(k);
  ranking_max_ = max;
  ranking_valid_ = true;
  accesses_since_rebuild_ = 0;
}

std::vector<PrefetchCandidate> HotSetPredictor::Predict(size_t max) {
  if (max == 0 || weights_.empty() || total_weight_ <= 0) return {};
  // Serve the cached ranking between rebuilds: popularity order drifts
  // slowly relative to per-request Predict calls, and the caller's
  // residency filters re-run against fresh cache state either way.
  if (!ranking_valid_ || max > ranking_max_ ||
      accesses_since_rebuild_ >= kRebuildEvery) {
    RebuildRanking(max);
  }
  std::vector<PrefetchCandidate> out = ranking_;
  if (out.size() > max) out.resize(max);
  return out;
}

// ---------------------------------------------------------------------------
// NextBlockPredictor
// ---------------------------------------------------------------------------

NextBlockPredictor::NextBlockPredictor(const PredictorGeometry& geometry)
    : geometry_(geometry) {
  assert(geometry.row_bytes > 0);
}

uint64_t NextBlockPredictor::BlockOf(RowIndex row) const {
  return (geometry_.table_offset + row * geometry_.row_bytes) / kBlockSize;
}

void NextBlockPredictor::RecordMiss(RowIndex row) {
  const uint64_t block = BlockOf(row);
  if (!miss_blocks_.empty() && miss_blocks_.back() == block) return;
  miss_blocks_.push_back(block);
  if (miss_blocks_.size() > kHistory) miss_blocks_.pop_front();
}

void NextBlockPredictor::AppendBlockRows(uint64_t block, double confidence,
                                         std::vector<PrefetchCandidate>* out) const {
  // Rows fully contained in `block`; a boundary-straddling row belongs to
  // neither neighbour's readahead.
  const Bytes block_begin = block * kBlockSize;
  const Bytes block_end = block_begin + kBlockSize;
  if (block_end <= geometry_.table_offset) return;
  const Bytes rb = geometry_.row_bytes;
  Bytes first_off = block_begin > geometry_.table_offset ? block_begin : geometry_.table_offset;
  // Round up to the next row start at or after first_off.
  const uint64_t first_row = (first_off - geometry_.table_offset + rb - 1) / rb;
  for (uint64_t r = first_row; r < geometry_.num_rows; ++r) {
    const Bytes off = geometry_.table_offset + r * rb;
    if (off + rb > block_end) break;
    out->push_back(PrefetchCandidate{r, confidence});
  }
}

std::vector<PrefetchCandidate> NextBlockPredictor::Predict(size_t max) {
  std::vector<PrefetchCandidate> out;
  if (max == 0 || miss_blocks_.size() < 2) return out;

  // Dominant delta among consecutive recent miss blocks.
  std::unordered_map<int64_t, int> deltas;
  for (size_t i = 1; i < miss_blocks_.size(); ++i) {
    ++deltas[static_cast<int64_t>(miss_blocks_[i]) -
             static_cast<int64_t>(miss_blocks_[i - 1])];
  }
  int64_t stride = 0;
  int best = 0;
  int total = 0;
  // The winner must be picked by a total order: count desc, then nonzero
  // before zero, then smaller magnitude, then forward over backward. A
  // tie-break that leaves any pair unordered (e.g. +2 vs -2 at equal count)
  // would resolve by unordered_map iteration order, which differs across
  // standard libraries and would fork prefetch decisions cross-platform.
  const auto beats = [](int64_t d, int n, int64_t cur, int cur_n) {
    if (n != cur_n) return n > cur_n;
    if ((d == 0) != (cur == 0)) return d != 0;
    if (std::abs(d) != std::abs(cur)) return std::abs(d) < std::abs(cur);
    return d > cur;
  };
  bool have = false;
  for (const auto& [d, n] : deltas) {
    total += n;
    if (!have || beats(d, n, stride, best)) {
      best = n;
      stride = d;
      have = true;
    }
  }
  if (stride == 0 || total == 0) return out;
  const double confidence = static_cast<double>(best) / static_cast<double>(total);

  // Apply the stride repeatedly from the most recent miss block.
  const Bytes table_end = geometry_.table_offset + geometry_.num_rows * geometry_.row_bytes;
  const uint64_t last_block = table_end == 0 ? 0 : (table_end - 1) / kBlockSize;
  int64_t block = static_cast<int64_t>(miss_blocks_.back());
  for (int i = 0; i < kReadaheadBlocks && out.size() < max; ++i) {
    block += stride;
    if (block < 0 || static_cast<uint64_t>(block) > last_block) break;
    AppendBlockRows(static_cast<uint64_t>(block), confidence, &out);
  }
  if (out.size() > max) out.resize(max);
  return out;
}

}  // namespace sdm
