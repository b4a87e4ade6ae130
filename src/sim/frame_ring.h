#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <utility>

namespace kwikr::sim {

/// Bounded FIFO over a power-of-two ring: push/pop are index arithmetic
/// (mask, no modulo, no branchy segment logic), so the steady state of the
/// frame path performs zero heap traffic — unlike std::deque, which
/// allocates and frees map segments as the queue breathes.
///
/// Capacity model: `capacity` is the logical bound (drop-tail semantics live
/// in the caller via the push_back() return value — a full ring refuses the
/// element). The backing store starts empty and grows geometrically to the
/// next power of two as the high-water mark rises, then never shrinks; a
/// queue that reaches depth N allocates O(log N) times total, ever. This
/// deliberately does NOT reserve `capacity` upfront: contender queues
/// default to a 512-frame bound but sit near-empty in most scenarios, and
/// the simulator's small resident set is a feature (see the benchmark's
/// peak_rss_mb).
///
/// T may be move-only; elements live in raw aligned storage and are
/// constructed/destroyed individually, so no default constructor is needed.
template <typename T>
class FrameRing {
 public:
  FrameRing() noexcept = default;
  explicit FrameRing(std::size_t capacity) noexcept : capacity_(capacity) {}

  FrameRing(FrameRing&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        mask_(std::exchange(other.mask_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)),
        capacity_(other.capacity_) {}

  FrameRing& operator=(FrameRing&& other) noexcept {
    if (this != &other) {
      Release();
      slots_ = std::exchange(other.slots_, nullptr);
      mask_ = std::exchange(other.mask_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
      capacity_ = other.capacity_;
    }
    return *this;
  }

  FrameRing(const FrameRing&) = delete;
  FrameRing& operator=(const FrameRing&) = delete;

  ~FrameRing() { Release(); }

  /// Appends by move — the element is constructed directly in its ring cell
  /// from `value`, with no intermediate materialization. Returns false — and
  /// leaves the ring untouched — when the ring is at capacity (the caller
  /// counts the drop).
  bool push_back(T&& value) {
    if (size_ >= capacity_) return false;
    if (size_ == SlotCount()) Grow();
    ::new (static_cast<void*>(slots_ + ((head_ + size_) & mask_)))
        T(std::move(value));
    ++size_;
    return true;
  }

  /// Copying overload for lvalue callers (tests, replay tooling).
  bool push_back(const T& value) { return push_back(T(value)); }

  /// Brace-initializes an element directly in its ring cell (aggregates
  /// included), with push_back's drop-tail contract: no temporary element
  /// is materialized and copied in.
  template <typename... Args>
  bool emplace_back(Args&&... args) {
    if (size_ >= capacity_) return false;
    if (size_ == SlotCount()) Grow();
    ::new (static_cast<void*>(slots_ + ((head_ + size_) & mask_)))
        T{std::forward<Args>(args)...};
    ++size_;
    return true;
  }

  void pop_front() {
    assert(size_ > 0);
    slots_[head_].~T();
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const {
    assert(size_ > 0);
    return slots_[head_];
  }

  /// i-th element from the front (0 = front). For tests and introspection.
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) & mask_];
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ >= capacity_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Slots currently allocated (the high-water power of two).
  [[nodiscard]] std::size_t allocated() const noexcept { return SlotCount(); }

  void clear() noexcept {
    while (size_ > 0) pop_front();
  }

 private:
  static constexpr std::size_t kInitialSlots = 8;

  [[nodiscard]] std::size_t SlotCount() const noexcept {
    return slots_ == nullptr ? 0 : mask_ + 1;
  }

  void Grow() {
    const std::size_t old_slots = SlotCount();
    std::size_t new_slots = old_slots == 0 ? kInitialSlots : old_slots * 2;
    // Never allocate past the bound's power-of-two ceiling. (bit_ceil of an
    // effectively-unbounded capacity would overflow; skip the clamp there.)
    if (capacity_ <= std::numeric_limits<std::size_t>::max() / 2) {
      new_slots = std::min(new_slots, std::bit_ceil(capacity_));
    }
    assert(new_slots > old_slots);
    T* fresh = static_cast<T*>(::operator new(
        new_slots * sizeof(T), std::align_val_t{alignof(T)}));
    for (std::size_t i = 0; i < size_; ++i) {
      T& old = slots_[(head_ + i) & mask_];
      ::new (static_cast<void*>(fresh + i)) T(std::move(old));
      old.~T();
    }
    if (slots_ != nullptr) {
      ::operator delete(static_cast<void*>(slots_),
                        std::align_val_t{alignof(T)});
    }
    slots_ = fresh;
    mask_ = new_slots - 1;
    head_ = 0;
  }

  void Release() noexcept {
    clear();
    if (slots_ != nullptr) {
      ::operator delete(static_cast<void*>(slots_),
                        std::align_val_t{alignof(T)});
      slots_ = nullptr;
      mask_ = 0;
      head_ = 0;
    }
  }

  T* slots_ = nullptr;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;  ///< always < SlotCount() (pre-masked).
  std::size_t size_ = 0;
  std::size_t capacity_ = std::numeric_limits<std::size_t>::max();
};

}  // namespace kwikr::sim
