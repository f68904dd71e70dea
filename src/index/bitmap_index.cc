#include "index/bitmap_index.h"

namespace fastmatch {

namespace {

template <typename T>
void FillBitmaps(const StoreView& view, int attr,
                 std::vector<BitVector>* bitmaps) {
  const StorePin& pin = view.pin();
  for (BlockId b = 0; b < pin.num_blocks; ++b) {
    RowId begin, end;
    pin.BlockRowRange(b, &begin, &end);
    // Chunk b holds block b's rows at local offsets.
    const T* data = view.chunk_data<T>(attr, b);
    for (RowId r = begin; r < end; ++r) {
      (*bitmaps)[data[r - begin]].Set(b);
    }
  }
}

}  // namespace

Result<std::shared_ptr<BitmapIndex>> BitmapIndex::Build(
    const ColumnStore& store, int attr) {
  if (attr < 0 || attr >= store.schema().num_attributes()) {
    return Status::InvalidArgument("BitmapIndex::Build: bad attribute index " +
                                   std::to_string(attr));
  }
  // Build through one pinned view: an append racing the build can only
  // add rows past the pin, which the index then simply does not cover
  // (num_rows() tells scans where coverage ends), and can never move the
  // chunks the view reads.
  const StoreView view = store.PinView();
  auto index = std::make_shared<BitmapIndex>();
  index->attr_ = attr;
  index->store_id_ = view.pin().store_id;
  index->num_blocks_ = view.pin().num_blocks;
  index->num_rows_ = view.pin().num_rows;
  const uint32_t card = store.schema().attribute(attr).cardinality;
  index->bitmaps_.assign(card, BitVector(index->num_blocks_));

  switch (store.schema().attribute(attr).type()) {
    case ValueType::kU8:
      FillBitmaps<uint8_t>(view, attr, &index->bitmaps_);
      break;
    case ValueType::kU16:
      FillBitmaps<uint16_t>(view, attr, &index->bitmaps_);
      break;
    case ValueType::kU32:
      FillBitmaps<uint32_t>(view, attr, &index->bitmaps_);
      break;
  }

  index->block_counts_.resize(card);
  for (uint32_t v = 0; v < card; ++v) {
    index->block_counts_[v] = index->bitmaps_[v].Popcount();
  }
  return index;
}

int64_t BitmapIndex::ByteSize() const {
  int64_t total = 0;
  for (const auto& bv : bitmaps_) {
    total += static_cast<int64_t>(bv.words().size()) * 8;
  }
  return total;
}

}  // namespace fastmatch
