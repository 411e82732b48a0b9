#pragma once
/// \file matrix.hpp
/// Dense column-major matrix container and non-owning views.
///
/// Layout follows LAPACK/Julia convention: element (i, j) lives at
/// data[i + j*ld], 0-based. MatrixView supports an index-level *lazy
/// transpose* (no data movement) — the mechanism Algorithm 2 of the paper
/// uses (`A'`) to express LQ sweeps through the QR kernels.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"

namespace unisvd {

/// Linear index type: 32k x 32k matrices exceed 2^30 elements, so all
/// addressing is 64-bit (the paper calls out vendor libraries still lacking
/// 64-bit addressing in their SVD routines).
using index_t = std::int64_t;

// ---------------------------------------------------------------------------
// Allocation accounting: every Matrix<T> buffer is counted into a process-
// wide live-bytes gauge with a high-water mark. This is how memory claims
// become testable facts — e.g. the tall path's guarantee that a
// Thin solve peaks at O(m_pad * n_pad) vector working bytes instead of
// O(m_pad^2) is asserted against matrix_peak_bytes() in the test suite.
// Counters are atomic (batched solvers allocate concurrently) and cost one
// relaxed RMW per allocation — noise next to the fill that follows.
//
// Deliberately lock-free rather than UNISVD_GUARDED_BY a mutex: a mutex on
// the allocation path would serialize every concurrent Matrix build, and
// the gauges need no cross-field consistency. Relaxed ordering suffices —
// each gauge is independently monotone-correct (fetch_add/fetch_sub can
// never lose a byte), and the peak CAS loop re-reads until it either
// observes a peak >= the live value it computed or publishes that value,
// so the high-water mark never under-reports a level this thread created.
// Tests that assert on the peak quiesce their allocations first, which
// gives the happens-before edge relaxed loads don't.
// ---------------------------------------------------------------------------

namespace detail {

inline std::atomic<std::size_t>& matrix_live_counter() noexcept {
  static std::atomic<std::size_t> live{0};
  return live;
}
inline std::atomic<std::size_t>& matrix_peak_counter() noexcept {
  static std::atomic<std::size_t> peak{0};
  return peak;
}

}  // namespace detail

/// Bytes currently held by live Matrix<T> buffers, process-wide.
[[nodiscard]] inline std::size_t matrix_live_bytes() noexcept {
  return detail::matrix_live_counter().load(std::memory_order_relaxed);
}

/// High-water mark of matrix_live_bytes() since the last matrix_reset_peak()
/// (or process start).
[[nodiscard]] inline std::size_t matrix_peak_bytes() noexcept {
  return detail::matrix_peak_counter().load(std::memory_order_relaxed);
}

/// Reset the high-water mark to the current live footprint. Call before the
/// region whose peak you want to measure.
inline void matrix_reset_peak() noexcept {
  detail::matrix_peak_counter().store(matrix_live_bytes(),
                                      std::memory_order_relaxed);
}

/// Counting allocator behind Matrix<T>'s storage: books (de)allocations into
/// the live/peak gauges above, otherwise std::allocator. Stateless — all
/// instances are interchangeable.
template <class T>
struct MatrixAllocator {
  using value_type = T;

  MatrixAllocator() = default;
  template <class U>
  MatrixAllocator(const MatrixAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    // Allocate FIRST: a std::bad_alloc must not leave phantom bytes in the
    // gauges (batched Isolate keeps the process alive after one).
    T* p = std::allocator<T>{}.allocate(n);
    const std::size_t bytes = n * sizeof(T);
    const std::size_t live =
        detail::matrix_live_counter().fetch_add(bytes, std::memory_order_relaxed) +
        bytes;
    auto& peak = detail::matrix_peak_counter();
    std::size_t seen = peak.load(std::memory_order_relaxed);
    while (seen < live &&
           !peak.compare_exchange_weak(seen, live, std::memory_order_relaxed)) {
    }
    return p;
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::matrix_live_counter().fetch_sub(n * sizeof(T),
                                            std::memory_order_relaxed);
    std::allocator<T>{}.deallocate(p, n);
  }

  friend bool operator==(const MatrixAllocator&, const MatrixAllocator&) noexcept {
    return true;
  }
};

template <class T>
class MatrixView;
template <class T>
class ConstMatrixView;

/// Owning dense column-major matrix.
template <class T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(index_t rows, index_t cols)
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols)) {}

  Matrix(index_t rows, index_t cols, T fill) : Matrix(rows, cols) {
    std::fill(data_.begin(), data_.end(), fill);
  }

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t ld() const noexcept { return rows_; }
  [[nodiscard]] index_t size() const noexcept { return rows_ * cols_; }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

  [[nodiscard]] T& operator()(index_t i, index_t j) noexcept {
    return data_[static_cast<std::size_t>(i + j * rows_)];
  }
  [[nodiscard]] const T& operator()(index_t i, index_t j) const noexcept {
    return data_[static_cast<std::size_t>(i + j * rows_)];
  }

  [[nodiscard]] MatrixView<T> view() noexcept;
  [[nodiscard]] ConstMatrixView<T> view() const noexcept;
  [[nodiscard]] MatrixView<T> transposed() noexcept;

 private:
  static std::size_t checked_size(index_t rows, index_t cols) {
    UNISVD_REQUIRE(rows >= 0 && cols >= 0, "Matrix dimensions must be non-negative");
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<T, MatrixAllocator<T>> data_;
};

/// Non-owning mutable view with leading dimension and lazy-transpose flag.
///
/// When `trans` is set, `at(i, j)` resolves to the (j, i) element of the
/// underlying storage: the view *is* the transpose without moving data.
template <class T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, index_t rows, index_t cols, index_t ld, bool trans = false) noexcept
      : data_(data), rows_(rows), cols_(cols), ld_(ld), trans_(trans) {}

  [[nodiscard]] index_t rows() const noexcept { return trans_ ? cols_ : rows_; }
  [[nodiscard]] index_t cols() const noexcept { return trans_ ? rows_ : cols_; }
  [[nodiscard]] index_t ld() const noexcept { return ld_; }
  [[nodiscard]] bool is_transposed() const noexcept { return trans_; }
  [[nodiscard]] T* data() const noexcept { return data_; }

  [[nodiscard]] T& at(index_t i, index_t j) const noexcept {
    return trans_ ? data_[static_cast<std::size_t>(j + i * ld_)]
                  : data_[static_cast<std::size_t>(i + j * ld_)];
  }
  [[nodiscard]] T& operator()(index_t i, index_t j) const noexcept { return at(i, j); }

  /// Lazy transpose: flips the flag, keeps the storage.
  [[nodiscard]] MatrixView transposed() const noexcept {
    return MatrixView(data_, rows_, cols_, ld_, !trans_);
  }

  /// Rectangular sub-view anchored at logical (i0, j0) of this view.
  [[nodiscard]] MatrixView block(index_t i0, index_t j0, index_t nrows,
                                 index_t ncols) const noexcept {
    if (!trans_) {
      return MatrixView(data_ + i0 + j0 * ld_, nrows, ncols, ld_, false);
    }
    // Logical (i0, j0) of the transposed view is storage (j0, i0).
    return MatrixView(data_ + j0 + i0 * ld_, ncols, nrows, ld_, true);
  }

 private:
  T* data_ = nullptr;
  index_t rows_ = 0;  // storage extent, not logical
  index_t cols_ = 0;
  index_t ld_ = 0;
  bool trans_ = false;
};

/// Non-owning read-only view (same semantics as MatrixView).
template <class T>
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const T* data, index_t rows, index_t cols, index_t ld,
                  bool trans = false) noexcept
      : data_(data), rows_(rows), cols_(cols), ld_(ld), trans_(trans) {}
  // Implicit widening from a mutable view.
  ConstMatrixView(MatrixView<T> v) noexcept
      : data_(v.data()), rows_(v.is_transposed() ? v.cols() : v.rows()),
        cols_(v.is_transposed() ? v.rows() : v.cols()), ld_(v.ld()),
        trans_(v.is_transposed()) {}

  [[nodiscard]] index_t rows() const noexcept { return trans_ ? cols_ : rows_; }
  [[nodiscard]] index_t cols() const noexcept { return trans_ ? rows_ : cols_; }
  [[nodiscard]] index_t ld() const noexcept { return ld_; }
  [[nodiscard]] bool is_transposed() const noexcept { return trans_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }

  [[nodiscard]] const T& at(index_t i, index_t j) const noexcept {
    return trans_ ? data_[static_cast<std::size_t>(j + i * ld_)]
                  : data_[static_cast<std::size_t>(i + j * ld_)];
  }
  [[nodiscard]] const T& operator()(index_t i, index_t j) const noexcept {
    return at(i, j);
  }

  [[nodiscard]] ConstMatrixView transposed() const noexcept {
    return ConstMatrixView(data_, rows_, cols_, ld_, !trans_);
  }

 private:
  const T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
  bool trans_ = false;
};

template <class T>
MatrixView<T> Matrix<T>::view() noexcept {
  return MatrixView<T>(data(), rows_, cols_, rows_);
}
template <class T>
ConstMatrixView<T> Matrix<T>::view() const noexcept {
  return ConstMatrixView<T>(data(), rows_, cols_, rows_);
}
template <class T>
MatrixView<T> Matrix<T>::transposed() noexcept {
  return view().transposed();
}

}  // namespace unisvd
