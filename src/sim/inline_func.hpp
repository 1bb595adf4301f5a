// InlineFunc: a fixed-size, allocation-free callable for the event hot path.
//
// Every event the kernel dispatches used to be a std::function<void()>.
// libstdc++'s std::function only stores captures up to 16 bytes inline;
// anything larger — a coroutine handle plus a couple of fields, a pool
// handle with bookkeeping — costs one heap allocation and one free per
// scheduled event. At tens of millions of events per second that malloc
// traffic is the single largest kernel overhead (see DESIGN.md §11).
//
// InlineFunc stores the callable in a 48-byte inline buffer, full stop:
// there is no heap fallback. A capture that does not fit is a compile
// error, which turns "audit every scheduling site" into something the
// compiler enforces. Sites that want to move bulky state (a net::Packet)
// through an event capture a pool handle instead (net::PacketPool).
//
// Move-only, like the events it carries (captures may own resources).
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sv::sim {

class InlineFunc {
 public:
  /// Inline capture capacity. sizeof(InlineFunc) == kCapacity + two
  /// pointers == 64. Every current capture is at most a few pointers and
  /// integers; the static_assert below flags any site that outgrows this.
  static constexpr std::size_t kCapacity = 48;
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  InlineFunc() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunc> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineFunc(F&& f) {  // NOLINT(google-explicit-constructor)
    static_assert(sizeof(D) <= kCapacity,
                  "InlineFunc: capture too large for the inline buffer — "
                  "shrink the capture or move the state through a pool "
                  "handle (see net::PacketPool)");
    static_assert(alignof(D) <= kAlign,
                  "InlineFunc: capture over-aligned for the inline buffer");
    static_assert(std::is_move_constructible_v<D>,
                  "InlineFunc: capture must be move-constructible");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    invoke_ = [](void* s) { (*static_cast<D*>(s))(); };
    // Most captures are a few pointers and integers: trivially copyable,
    // trivially destructible. Those keep manage_ == nullptr and relocate
    // by plain memcpy with nothing to destroy — no indirect call when the
    // queue moves an event out at pop (it is built in place at push).
    if constexpr (!(std::is_trivially_copyable_v<D> &&
                    std::is_trivially_destructible_v<D>)) {
      manage_ = [](void* dst, void* src) {
        if (src != nullptr) {  // relocate: move-construct dst, destroy src
          ::new (dst) D(std::move(*static_cast<D*>(src)));
          static_cast<D*>(src)->~D();
        } else {  // destroy dst
          static_cast<D*>(dst)->~D();
        }
      };
    }
  }

  InlineFunc(InlineFunc&& o) noexcept
      : invoke_(o.invoke_), manage_(o.manage_) {
    if (invoke_ != nullptr) {
      if (manage_ != nullptr) {
        manage_(storage_, o.storage_);
      } else {
        std::memcpy(storage_, o.storage_, kCapacity);
      }
      o.invoke_ = nullptr;
      o.manage_ = nullptr;
    }
  }

  InlineFunc& operator=(InlineFunc&& o) noexcept {
    if (this != &o) {
      reset();
      invoke_ = o.invoke_;
      manage_ = o.manage_;
      if (invoke_ != nullptr) {
        if (manage_ != nullptr) {
          manage_(storage_, o.storage_);
        } else {
          std::memcpy(storage_, o.storage_, kCapacity);
        }
        o.invoke_ = nullptr;
        o.manage_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunc(const InlineFunc&) = delete;
  InlineFunc& operator=(const InlineFunc&) = delete;

  ~InlineFunc() { reset(); }

  void operator()() { invoke_(storage_); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

 private:
  void reset() {
    if (manage_ != nullptr) {
      manage_(storage_, nullptr);
    }
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  using Invoke = void (*)(void*);
  using Manage = void (*)(void* dst, void* src);

  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
  alignas(kAlign) unsigned char storage_[kCapacity];
};

static_assert(sizeof(InlineFunc) == 64, "one cache line per callable");

}  // namespace sv::sim
