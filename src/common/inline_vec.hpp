// Small-buffer vector for trivially copyable elements.
//
// InlineVec<T, N> keeps up to N elements inside the object and moves them to
// one heap block when it grows past N. It exists for the per-read hot path
// (DESIGN.md "Simulator scalability"): a chunk's replica set, a task's input
// list and a flow's resource path are almost always short, and keeping them
// inline saves a pointer chase and a malloc/free per read. The API is the
// subset of std::vector those call sites use, with the same element order
// and the same erase semantics, so swapping the type changes no output.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/require.hpp"

namespace opass {

template <typename T, std::size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>, "InlineVec holds trivially copyable elements");
  static_assert(N > 0 && N < (std::size_t{1} << 31), "inline capacity out of range");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using reference = T&;
  using const_reference = const T&;
  using iterator = T*;
  using const_iterator = const T*;

  // User-provided, so a const InlineVec (or a const aggregate holding one)
  // may be default-initialized.
  InlineVec() noexcept {}
  InlineVec(std::initializer_list<T> init) { assign_n(init.begin(), init.size()); }

  InlineVec(const InlineVec& other) { assign_n(other.data(), other.size()); }
  InlineVec(InlineVec&& other) noexcept { steal(other); }
  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) assign_n(other.data(), other.size());
    return *this;
  }
  InlineVec& operator=(InlineVec&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  InlineVec& operator=(std::initializer_list<T> init) {
    assign_n(init.begin(), init.size());
    return *this;
  }
  InlineVec& operator=(std::span<const T> items) {
    assign_n(items.data(), items.size());
    return *this;
  }
  ~InlineVec() { release(); }

  T* data() noexcept { return spilled() ? heap_ : inline_; }
  const T* data() const noexcept { return spilled() ? heap_ : inline_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return cap_; }
  /// True while the elements live in a heap block rather than inline.
  bool spilled() const noexcept { return cap_ > N; }

  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }

  T& operator[](std::size_t i) noexcept { return data()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data()[i]; }
  T& front() noexcept { return data()[0]; }
  const T& front() const noexcept { return data()[0]; }
  T& back() noexcept { return data()[size_ - 1]; }
  const T& back() const noexcept { return data()[size_ - 1]; }

  void push_back(const T& value) {
    const T copy = value;  // `value` may alias an element that grow() frees
    if (size_ == cap_) grow(std::size_t{cap_} * 2);
    data()[size_++] = copy;
  }
  void pop_back() noexcept { --size_; }
  void clear() noexcept { size_ = 0; }
  /// Move the elements back inline and free the heap block when they fit.
  void shrink_to_fit() noexcept {
    if (!spilled() || size_ > N) return;
    T* block = heap_;
    if (size_ > 0) std::memcpy(inline_, block, size_ * sizeof(T));
    deallocate(block, cap_);
    cap_ = static_cast<std::uint32_t>(N);
  }

  /// Remove one element, shifting the tail left (order preserved).
  iterator erase(const_iterator pos) noexcept { return erase(pos, pos + 1); }
  iterator erase(const_iterator first, const_iterator last) noexcept {
    T* base = data();
    const auto at = static_cast<std::size_t>(first - base);
    const auto count = static_cast<std::size_t>(last - first);
    const std::size_t tail = size_ - at - count;
    if (count > 0 && tail > 0) std::memmove(base + at, base + at + count, tail * sizeof(T));
    size_ -= static_cast<std::uint32_t>(count);
    return base + at;
  }

  friend bool operator==(const InlineVec& a, const InlineVec& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const InlineVec& a, const std::vector<T>& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  static T* allocate(std::size_t n) { return std::allocator<T>{}.allocate(n); }
  static void deallocate(T* p, std::size_t n) noexcept { std::allocator<T>{}.deallocate(p, n); }

  void grow(std::size_t new_cap) {
    OPASS_CHECK(new_cap < (std::size_t{1} << 31), "InlineVec capacity overflow");
    T* block = allocate(new_cap);
    if (size_ > 0) std::memcpy(block, data(), size_ * sizeof(T));
    release();
    heap_ = block;
    cap_ = static_cast<std::uint32_t>(new_cap);
  }

  void assign_n(const T* src, std::size_t n) {
    if (n > cap_) {
      size_ = 0;  // nothing to carry over: grow() copies no elements
      grow(n);
    }
    if (n > 0) std::memmove(data(), src, n * sizeof(T));
    size_ = static_cast<std::uint32_t>(n);
  }

  void release() noexcept {
    if (spilled()) deallocate(heap_, cap_);
    cap_ = static_cast<std::uint32_t>(N);
  }

  /// Take `other`'s elements (its heap block, if any) and leave it empty and
  /// inline. Precondition: this holds no heap block.
  void steal(InlineVec& other) noexcept {
    if (other.spilled()) {
      heap_ = other.heap_;
    } else if (other.size_ > 0) {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
    }
    size_ = other.size_;
    cap_ = other.cap_;
    other.size_ = 0;
    other.cap_ = static_cast<std::uint32_t>(N);
  }

  union {
    T inline_[N] = {};
    T* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = static_cast<std::uint32_t>(N);
};

/// std::erase_if for InlineVec: drop every element matching `pred`, keeping
/// the survivors' order. Returns the number removed.
template <typename T, std::size_t N, typename Pred>
std::size_t erase_if(InlineVec<T, N>& v, Pred pred) {
  T* kept = std::remove_if(v.begin(), v.end(), pred);
  const auto removed = static_cast<std::size_t>(v.end() - kept);
  v.erase(kept, v.end());
  return removed;
}

}  // namespace opass
