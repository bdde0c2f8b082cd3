// The one callable type of the discrete-event engine.
//
// A Task is a move-only `void()` callable with an inline buffer: closures
// that fit (every per-message closure of the ORB, the network and the CPU
// queue does) are stored in place, so scheduling one costs no allocation;
// larger ones spill to the heap.  The Scheduler keeps each pending Task in
// its slot table and the CpuQueue folds its epoch guard into the caller's
// closure, so a unit of work is type-erased exactly once.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace newtop {

class Task {
public:
    /// Bytes of closure state stored without allocating.  Sized for the
    /// largest per-operation closure, the invocation layer's servant
    /// execution (160 bytes), plus the CPU queue's epoch guard (16 bytes).
    /// Only the closure's own bytes move when a Task moves, so the slack
    /// costs slot-table space, not copying.
    static constexpr std::size_t kInlineBytes = 176;

    /// Types with a null state (function pointers, std::function): a null
    /// value makes an empty Task rather than a callable one.
    template <typename F>
    static constexpr bool kNullable =
        std::is_pointer_v<F> || requires(const F& f) { f.operator bool(); };

    Task() noexcept = default;
    Task(std::nullptr_t) noexcept {}

    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, Task> &&
                 std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
    Task(F&& fn) {
        using D = std::remove_cvref_t<F>;
        if constexpr (kNullable<D>) {
            if (!fn) return;
        }
        if constexpr (kStoredInline<D>) {
            std::construct_at(static_cast<D*>(storage()), std::forward<F>(fn));
            ops_ = &kInlineOps<D>;
        } else {
            // newtop-lint: allow(hot-path-alloc): closures over kInlineBytes spill by design; no per-message closure is that large
            std::construct_at(static_cast<D**>(storage()), new D(std::forward<F>(fn)));
            ops_ = &kHeapOps<D>;
        }
    }

    Task(Task&& other) noexcept : ops_(std::exchange(other.ops_, nullptr)) {
        if (ops_ != nullptr) ops_->relocate(storage(), other.storage());
    }

    Task& operator=(Task&& other) noexcept {
        if (this != &other) {
            reset();
            ops_ = std::exchange(other.ops_, nullptr);
            if (ops_ != nullptr) ops_->relocate(storage(), other.storage());
        }
        return *this;
    }

    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;

    ~Task() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /// Run the callable.  Precondition: not empty.
    void operator()() { ops_->invoke(storage()); }

    /// Destroy the captured state now, leaving the Task empty.  The Task is
    /// already empty while the closure's destructor runs, so a destructor
    /// that reaches back into its owner sees consistent state.
    void reset() noexcept {
        if (const Ops* ops = std::exchange(ops_, nullptr)) ops->destroy(storage());
    }

private:
    struct Ops {
        void (*invoke)(void* self);
        /// Move-construct into `dst` and destroy the source.
        void (*relocate)(void* dst, void* src) noexcept;
        void (*destroy)(void* self) noexcept;
    };

    template <typename D>
    static constexpr bool kStoredInline = sizeof(D) <= kInlineBytes &&
                                          alignof(D) <= alignof(void*) &&
                                          std::is_nothrow_move_constructible_v<D>;

    template <typename D>
    static constexpr Ops kInlineOps{
        [](void* self) { (*static_cast<D*>(self))(); },
        [](void* dst, void* src) noexcept {
            std::construct_at(static_cast<D*>(dst), std::move(*static_cast<D*>(src)));
            std::destroy_at(static_cast<D*>(src));
        },
        [](void* self) noexcept { std::destroy_at(static_cast<D*>(self)); },
    };

    template <typename D>
    static constexpr Ops kHeapOps{
        [](void* self) { (**static_cast<D**>(self))(); },
        [](void* dst, void* src) noexcept {
            std::construct_at(static_cast<D**>(dst), *static_cast<D**>(src));
        },
        [](void* self) noexcept { delete *static_cast<D**>(self); },
    };

    void* storage() noexcept { return static_cast<void*>(buffer_); }

    const Ops* ops_{nullptr};
    alignas(void*) std::byte buffer_[kInlineBytes];
};

}  // namespace newtop
