#include "engine/io_manager.h"

#include "engine/scan_kernel.h"
#include "util/logging.h"

namespace fastmatch {

Result<std::unique_ptr<IoManager>> IoManager::Create(
    std::shared_ptr<const ColumnStore> store, int z_attr,
    std::vector<int> x_attrs, std::optional<StoreView> view) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  FASTMATCH_ASSIGN_OR_RETURN(
      CountDomain domain, ComputeCountDomain(store->schema(), z_attr, x_attrs));
  if (!view.has_value()) view = store->PinView();
  if (view->pin().store_id != store->id()) {
    return Status::InvalidArgument("store view pins a different store");
  }
  return std::unique_ptr<IoManager>(
      new IoManager(std::move(store), z_attr, std::move(x_attrs),
                    std::move(domain), *std::move(view)));
}

IoManager::IoManager(std::shared_ptr<const ColumnStore> store, int z_attr,
                     std::vector<int> x_attrs, CountDomain domain,
                     StoreView view)
    : store_(std::move(store)),
      view_(std::move(view)),
      z_attr_(z_attr),
      x_attrs_(std::move(x_attrs)),
      x_cards_(std::move(domain.x_cards)),
      num_candidates_(domain.num_candidates),
      num_groups_(domain.num_groups) {
  // Re-assert ComputeCountDomain's bounds rather than recomputing (and
  // possibly re-narrowing) them here.
  FASTMATCH_CHECK_GE(num_candidates_, 0);
  FASTMATCH_CHECK_LE(num_candidates_, 1 << 24);
  FASTMATCH_CHECK_GE(num_groups_, 0);
  FASTMATCH_CHECK_LE(num_groups_, 1 << 24);
  FASTMATCH_CHECK_EQ(x_cards_.size(), x_attrs_.size());
}

template <typename ZT, typename XT>
int64_t IoManager::ReadBlockTyped(BlockId b, CountMatrix* out) const {
  RowId begin, end;
  view_.pin().BlockRowRange(b, &begin, &end);
  // Chunk b holds block b's rows at local offsets [0, end - begin).
  const ZT* z_data = view_.chunk_data<ZT>(z_attr_, b);
  const XT* x_data = view_.chunk_data<XT>(x_attrs_[0], b);
  const int64_t rows = end - begin;
  ScanBlock(z_data, x_data, rows, out);
  return rows;
}

int64_t IoManager::ReadBlockGeneric(BlockId b, CountMatrix* out) const {
  RowId begin, end;
  view_.pin().BlockRowRange(b, &begin, &end);
  const int64_t rows = end - begin;
  const ScanColumn z{view_.chunk_bytes(z_attr_, b), view_.type(z_attr_),
                     num_candidates_};
  // Column descriptors on the stack for any realistic composite width;
  // reads are const + concurrent, so there is no member scratch to use.
  constexpr size_t kStackX = 32;
  ScanColumn xbuf[kStackX];
  std::vector<ScanColumn> xheap;
  ScanColumn* xs = xbuf;
  const size_t num_x = x_attrs_.size();
  if (num_x > kStackX) {
    xheap.resize(num_x);
    xs = xheap.data();
  }
  for (size_t i = 0; i < num_x; ++i) {
    xs[i] = ScanColumn{view_.chunk_bytes(x_attrs_[i], b),
                       view_.type(x_attrs_[i]), x_cards_[i]};
  }
  ScanBlockGeneric(z, xs, static_cast<int>(num_x), rows, out);
  return rows;
}

int64_t IoManager::ReadBlocks(const std::vector<BlockId>& blocks,
                              size_t begin, size_t end,
                              CountMatrix* shard) const {
  int64_t rows = 0;
  for (size_t i = begin; i < end; ++i) {
    rows += ReadBlock(blocks[i], shard);
  }
  return rows;
}

int64_t IoManager::ReadBlock(BlockId b, CountMatrix* out) const {
  if (x_attrs_.size() != 1) return ReadBlockGeneric(b, out);
  const ValueType zt = store_->schema().attribute(z_attr_).type();
  const ValueType xt = store_->schema().attribute(x_attrs_[0]).type();
  switch (zt) {
    case ValueType::kU8:
      switch (xt) {
        case ValueType::kU8:
          return ReadBlockTyped<uint8_t, uint8_t>(b, out);
        case ValueType::kU16:
          return ReadBlockTyped<uint8_t, uint16_t>(b, out);
        case ValueType::kU32:
          return ReadBlockTyped<uint8_t, uint32_t>(b, out);
      }
      break;
    case ValueType::kU16:
      switch (xt) {
        case ValueType::kU8:
          return ReadBlockTyped<uint16_t, uint8_t>(b, out);
        case ValueType::kU16:
          return ReadBlockTyped<uint16_t, uint16_t>(b, out);
        case ValueType::kU32:
          return ReadBlockTyped<uint16_t, uint32_t>(b, out);
      }
      break;
    case ValueType::kU32:
      switch (xt) {
        case ValueType::kU8:
          return ReadBlockTyped<uint32_t, uint8_t>(b, out);
        case ValueType::kU16:
          return ReadBlockTyped<uint32_t, uint16_t>(b, out);
        case ValueType::kU32:
          return ReadBlockTyped<uint32_t, uint32_t>(b, out);
      }
      break;
  }
  return ReadBlockGeneric(b, out);
}

}  // namespace fastmatch
