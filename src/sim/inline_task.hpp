// Small-buffer-optimized move-only callable for the event loop hot path.
//
// Every scheduled event used to be a std::function<void()>. Timers, pool
// completions and stream steps capture ≤ 32 bytes, so a 48-byte inline
// buffer schedules them allocation-free. Oversized or over-aligned
// callables, such as a message hop carrying its Msg by value, fall back to
// a single heap allocation, preserving std::function's generality.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace neutrino::sim {

class InlineTask {
 public:
  /// Captures up to this many bytes are stored inline (no allocation).
  static constexpr std::size_t kInlineCapacity = 48;

  InlineTask() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineTask> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineTask(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                       // the old `std::function<void()>` callback type.
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ptr_slot() = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineTask(InlineTask&& other) noexcept : ops_(other.ops_) {
    if (ops_) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineTask& operator=(InlineTask&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineTask(const InlineTask&) = delete;
  InlineTask& operator=(const InlineTask&) = delete;

  ~InlineTask() { reset(); }

  void operator()() {
    assert(ops_ != nullptr);
    ops_->invoke(storage_);
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }
  /// True when the callable lives in the inline buffer (test hook for the
  /// zero-allocation guarantee).
  [[nodiscard]] bool stores_inline() const { return ops_ && !ops_->heap; }

  void reset() {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-construct into dst's storage from src's storage, then destroy
    /// the source. dst storage is raw (no live object).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
    bool heap;
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineCapacity &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*static_cast<D*>(self))(); },
      [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* self) { static_cast<D*>(self)->~D(); },
      /*heap=*/false,
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* self) { (**static_cast<D**>(self))(); },
      [](void* dst, void* src) { std::memcpy(dst, src, sizeof(D*)); },
      [](void* self) { delete *static_cast<D**>(self); },
      /*heap=*/true,
  };

  void*& ptr_slot() { return *reinterpret_cast<void**>(storage_); }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(InlineTask) <= 64, "event hot-path size budget");

}  // namespace neutrino::sim
