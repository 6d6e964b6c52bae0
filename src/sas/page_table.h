// Lock-free map from a SAS page (layer, page-index) to one atomic word.
//
// The address space is a sequence of layers, each a run of pages (xptr.h),
// so a page is found with two array indexings instead of a hash probe:
//
//     row   = spine[layer]          (acquire loads of spine and row)
//     value = row[page_index]       (acquire load)
//
// Three maps share this one implementation: the buffer pool's shared-view
// fast map (page -> Frame*), the page directory (page -> physical page)
// and the version manager's "has a working copy" flags.
//
// Protocol:
//   * Reads never lock. A slot that was never stored, or lies beyond what
//     the table covers, reads as `kEmpty`.
//   * Writes (Store, ClearAll) must be serialized by the caller's mutex;
//     they only happen on allocation, fault, eviction and commit paths.
//   * The table grows by publishing a larger copy: a row that must cover a
//     higher page index, or a spine that must cover a higher layer, is
//     copied into a bigger array that is then released into place. The
//     superseded array is retired, not freed, until the table is
//     destroyed, so a reader that loaded the old pointer never touches
//     freed memory. Rows double, so a table retires O(log n) copies.
//   * Once a store has happened-before a reader's load of the row pointer,
//     the reader sees that store (or a later one): after a growth every
//     store goes to the new row, and the copy carries every earlier store.

#ifndef SEDNA_SAS_PAGE_TABLE_H_
#define SEDNA_SAS_PAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sas/xptr.h"

namespace sedna {

template <typename T, T kEmpty = T{}>
class PageTable {
  static_assert(std::atomic<T>::is_always_lock_free);

 public:
  PageTable() {
    spine_.store(
        Keep(&spines_owned_, std::make_unique<Spine>(kInitialLayers)),
        std::memory_order_release);
  }

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  /// Lock-free lookup of the page holding `addr`; kEmpty when the page
  /// has no value.
  T Load(Xptr addr) const {
    const Spine* s = spine_.load(std::memory_order_acquire);
    if (addr.layer() >= s->layers) return kEmpty;
    const Row* r = s->rows[addr.layer()].load(std::memory_order_acquire);
    if (r == nullptr || addr.PageIndex() >= r->slots) return kEmpty;
    return r->entries[addr.PageIndex()].load(std::memory_order_acquire);
  }

  /// Sets the value of the page holding `addr`, growing the table to cover
  /// it. Storing kEmpty into an uncovered page is a no-op. Caller
  /// serializes writers.
  void Store(Xptr addr, T value) {
    Row* r = RowFor(addr.layer(), addr.PageIndex(), /*grow=*/value != kEmpty);
    if (r != nullptr) {
      r->entries[addr.PageIndex()].store(value, std::memory_order_release);
    }
  }

  /// Resets every page to kEmpty, keeping the arrays. Caller serializes
  /// writers.
  void ClearAll() {
    const Spine* s = spine_.load(std::memory_order_relaxed);
    for (uint64_t l = 0; l < s->layers; ++l) {
      Row* r = s->rows[l].load(std::memory_order_relaxed);
      if (r == nullptr) continue;
      for (uint64_t i = 0; i < r->slots; ++i) {
        r->entries[i].store(kEmpty, std::memory_order_release);
      }
    }
  }

  /// Calls `fn(Xptr page_base, T value)` for every non-empty page, in
  /// address order. Exact only while writers are excluded.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const Spine* s = spine_.load(std::memory_order_acquire);
    for (uint64_t l = 0; l < s->layers; ++l) {
      const Row* r = s->rows[l].load(std::memory_order_acquire);
      if (r == nullptr) continue;
      for (uint64_t i = 0; i < r->slots; ++i) {
        T v = r->entries[i].load(std::memory_order_acquire);
        if (v != kEmpty) {
          fn(Xptr(static_cast<uint32_t>(l),
                  static_cast<uint32_t>(i << kPageSizeBits)),
             v);
        }
      }
    }
  }

 private:
  static constexpr uint64_t kInitialLayers = 64;
  // Pages a layer's row covers when first created: a layer of the page
  // directory's allocator (64 MiB). Rows grow past it on demand.
  static constexpr uint64_t kInitialRowSlots = 1u << 12;

  struct Row {
    explicit Row(uint64_t n) : slots(n), entries(new std::atomic<T>[n]) {
      for (uint64_t i = 0; i < n; ++i) {
        entries[i].store(kEmpty, std::memory_order_relaxed);
      }
    }
    const uint64_t slots;
    std::unique_ptr<std::atomic<T>[]> entries;
  };

  struct Spine {
    explicit Spine(uint64_t n) : layers(n), rows(new std::atomic<Row*>[n]) {
      for (uint64_t i = 0; i < n; ++i) {
        rows[i].store(nullptr, std::memory_order_relaxed);
      }
    }
    const uint64_t layers;
    std::unique_ptr<std::atomic<Row*>[]> rows;
  };

  /// `from` doubled until it exceeds `needed`.
  static uint64_t GrownSize(uint64_t from, uint64_t needed) {
    while (from <= needed) from *= 2;
    return from;
  }

  template <typename U>
  static U* Keep(std::vector<std::unique_ptr<U>>* owned,
                 std::unique_ptr<U> p) {
    owned->push_back(std::move(p));
    return owned->back().get();
  }

  /// The row covering (layer, index), created or grown when `grow`;
  /// nullptr when it is not covered and `grow` is false.
  Row* RowFor(uint32_t layer, uint32_t index, bool grow) {
    Spine* s = spine_.load(std::memory_order_relaxed);
    if (layer >= s->layers) {
      if (!grow) return nullptr;
      auto bigger = std::make_unique<Spine>(GrownSize(s->layers, layer));
      for (uint64_t l = 0; l < s->layers; ++l) {
        bigger->rows[l].store(s->rows[l].load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
      }
      s = Keep(&spines_owned_, std::move(bigger));
      spine_.store(s, std::memory_order_release);
    }
    Row* r = s->rows[layer].load(std::memory_order_relaxed);
    if (r == nullptr || index >= r->slots) {
      if (!grow) return nullptr;
      uint64_t from = r != nullptr ? r->slots : kInitialRowSlots;
      auto bigger = std::make_unique<Row>(GrownSize(from, index));
      if (r != nullptr) {
        for (uint64_t i = 0; i < r->slots; ++i) {
          bigger->entries[i].store(
              r->entries[i].load(std::memory_order_relaxed),
              std::memory_order_relaxed);
        }
      }
      r = Keep(&rows_owned_, std::move(bigger));
      s->rows[layer].store(r, std::memory_order_release);
    }
    return r;
  }

  std::atomic<Spine*> spine_;
  // Every array ever published, current and retired; freed with the table.
  std::vector<std::unique_ptr<Row>> rows_owned_;
  std::vector<std::unique_ptr<Spine>> spines_owned_;
};

}  // namespace sedna

#endif  // SEDNA_SAS_PAGE_TABLE_H_
