#include "engine/block_policy.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/random.h"

namespace fastmatch {

void MarkAnyActiveNaive(const BitmapIndex& index,
                        const std::vector<int>& active, BlockId start,
                        int count, std::vector<uint8_t>* marks) {
  FASTMATCH_CHECK_GE(start, 0);
  FASTMATCH_CHECK_LE(start + count, index.num_blocks());
  marks->assign(static_cast<size_t>(count), 0);
  for (int i = 0; i < count; ++i) {
    const BlockId b = start + i;
    for (int cand : active) {
      // Each lookup touches a different bitmap: deliberately the paper's
      // cache-inefficient per-block pattern.
      if (index.BlockContains(static_cast<Value>(cand), b)) {
        (*marks)[static_cast<size_t>(i)] = 1;
        break;
      }
    }
  }
}

void MarkAnyActiveLookahead(const BitmapIndex& index,
                            const std::vector<int>& active, BlockId start,
                            int count, std::vector<uint64_t>* scratch,
                            std::vector<uint8_t>* marks) {
  FASTMATCH_CHECK_GE(start, 0);
  FASTMATCH_CHECK_LE(start + count, index.num_blocks());
  marks->assign(static_cast<size_t>(count), 0);
  if (count == 0) return;

  const int64_t first_word = start >> 6;
  const int64_t last_word = (start + count - 1) >> 6;
  const size_t num_words = static_cast<size_t>(last_word - first_word + 1);
  scratch->assign(num_words, 0);

  // Candidate-outer: consume a run of consecutive words of one bitmap
  // before moving to the next candidate (one cache line yields 512 block
  // bits).
  for (int cand : active) {
    const auto& words = index.bitmap(static_cast<Value>(cand)).words();
    for (size_t w = 0; w < num_words; ++w) {
      (*scratch)[w] |= words[static_cast<size_t>(first_word) + w];
    }
  }

  for (int i = 0; i < count; ++i) {
    const int64_t bit = start + i;
    const uint64_t word =
        (*scratch)[static_cast<size_t>((bit >> 6) - first_word)];
    (*marks)[static_cast<size_t>(i)] =
        static_cast<uint8_t>((word >> (bit & 63)) & 1);
  }
}

int64_t CollectBlockDemand(const std::vector<BlockDemand>& demands,
                           BlockId start, int count, const BitVector& consumed,
                           MarkScratch* scratch, std::vector<BlockId>* reads) {
  std::vector<uint8_t>& wanted = scratch->wanted;
  wanted.assign(static_cast<size_t>(count), 0);
  for (const BlockDemand& d : demands) {
    if (d.scan_all) {
      wanted.assign(static_cast<size_t>(count), 1);
      break;
    }
    if (d.unmet.empty()) continue;
    const int covered = static_cast<int>(
        std::clamp<int64_t>(d.covered_blocks - start, 0, count));
    if (covered > 0) {
      if (d.naive) {
        MarkAnyActiveNaive(*d.index, d.unmet, start, covered, &scratch->marks);
      } else {
        MarkAnyActiveLookahead(*d.index, d.unmet, start, covered,
                               &scratch->words, &scratch->marks);
      }
      for (size_t i = 0; i < static_cast<size_t>(covered); ++i) {
        wanted[i] |= scratch->marks[i];
      }
    }
    std::fill(wanted.begin() + covered, wanted.end(), 1);
  }
  int64_t skipped = 0;
  for (int i = 0; i < count; ++i) {
    const BlockId b = start + i;
    if (consumed.Get(b)) continue;
    if (wanted[static_cast<size_t>(i)]) {
      reads->push_back(b);
    } else {
      ++skipped;
    }
  }
  return skipped;
}

ScanCursor::ScanCursor(int64_t num_blocks, uint64_t seed)
    : consumed_(num_blocks) {
  Rng rng(seed);
  position_ = static_cast<BlockId>(
      rng.Uniform(static_cast<uint64_t>(num_blocks)));
}

ScanCursor::ScanCursor(BitVector consumed, BlockId position)
    : consumed_(std::move(consumed)),
      consumed_blocks_(consumed_.Popcount()),
      position_(position) {}

void ScanCursor::Consume(BlockId b) {
  FASTMATCH_CHECK(!consumed_.Get(b)) << "block " << b << " read twice";
  consumed_.Set(b);
  ++consumed_blocks_;
}

BlockId ScanCursor::NextUnconsumed() {
  FASTMATCH_CHECK(!AllConsumed());
  while (consumed_.Get(position_)) StopAfter(position_);
  const BlockId b = position_;
  StopAfter(b);
  return b;
}

bool ScanCursor::NextWindow(const std::vector<BlockDemand>& demands,
                            int window, std::vector<BlockId>* reads,
                            int64_t* skipped) {
  const BlockId start = position_;
  const int count =
      static_cast<int>(std::min<int64_t>(window, num_blocks() - start));
  position_ = start + count == num_blocks() ? 0 : start + count;
  reads->clear();
  *skipped +=
      CollectBlockDemand(demands, start, count, consumed_, &scratch_, reads);
  streak_ = reads->empty() ? streak_ + count : 0;
  if (streak_ < num_blocks()) return false;
  for (const BlockDemand& d : demands) {
    for (int c : d.unmet) (*d.exhausted)[static_cast<size_t>(c)] = true;
  }
  streak_ = 0;
  return true;
}

}  // namespace fastmatch
