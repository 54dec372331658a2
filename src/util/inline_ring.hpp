// A FIFO queue with inline storage.
//
// InlineRing<T, N> holds up to N elements in place and allocates nothing
// while it stays within them.  Past N it spills to one heap buffer,
// doubling it as it fills, and keeps that buffer when it drains: a queue
// that once grew to k elements reuses its capacity and never allocates
// again below k.  Elements leave in the order they arrived.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <type_traits>

#include "util/assert.hpp"

namespace rtpb {

template <class T, std::size_t N>
class InlineRing {
  static_assert(N > 0);
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  InlineRing() = default;
  InlineRing(const InlineRing&) = delete;
  InlineRing& operator=(const InlineRing&) = delete;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Elements it holds without allocating: N, or the heap buffer's size.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] T& front() {
    RTPB_EXPECTS(size_ > 0);
    return data()[head_];
  }
  [[nodiscard]] const T& front() const {
    RTPB_EXPECTS(size_ > 0);
    return data()[head_];
  }

  void push_back(const T& v) {
    if (size_ == capacity_) grow();
    std::size_t tail = head_ + size_;
    if (tail >= capacity_) tail -= capacity_;
    data()[tail] = v;
    ++size_;
  }

  void pop_front() {
    RTPB_EXPECTS(size_ > 0);
    if (++head_ == capacity_) head_ = 0;
    --size_;
  }

 private:
  [[nodiscard]] T* data() { return heap_ ? heap_.get() : inline_.data(); }
  [[nodiscard]] const T* data() const { return heap_ ? heap_.get() : inline_.data(); }

  /// Move the elements, oldest first, to the front of a buffer twice the
  /// size.
  void grow() {
    auto bigger = std::make_unique<T[]>(2 * capacity_);
    const T* old = data();
    for (std::size_t i = 0; i < size_; ++i) {
      std::size_t at = head_ + i;
      if (at >= capacity_) at -= capacity_;
      bigger[i] = old[at];
    }
    heap_ = std::move(bigger);
    head_ = 0;
    capacity_ *= 2;
  }

  std::array<T, N> inline_{};
  std::unique_ptr<T[]> heap_;  ///< null until the ring first outgrows N
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace rtpb
