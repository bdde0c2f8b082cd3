// The engine's FIFO container.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace newtop {

/// A FIFO queue on a ring buffer: the one container behind every per-sender
/// message queue of the data path (the engines' holdback FIFOs, the
/// endpoint's release queue and the unstable store's runs) and behind the
/// scheduler's lanes.
///
/// The capacity is zero or a power of two and only grows, doubling when a
/// push finds the ring full, so once it covers the deepest queue seen a
/// push or pop allocates nothing.  Popping (and clear() and erase_if())
/// leaves the slot value-initialised: a slot never pins the buffers of a
/// message that left.
template <typename T>
class FifoRing {
public:
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

    /// The i-th oldest element.
    [[nodiscard]] T& operator[](std::size_t i) { return slots_[slot(i)]; }
    [[nodiscard]] const T& operator[](std::size_t i) const { return slots_[slot(i)]; }
    [[nodiscard]] T& front() { return (*this)[0]; }
    [[nodiscard]] const T& front() const { return (*this)[0]; }

    /// Append `value` and return the element as stored (valid until the
    /// ring next changes).
    T& push(T value) {
        if (count_ == slots_.size()) grow();
        T& stored = slots_[slot(count_)];
        stored = std::move(value);
        ++count_;
        return stored;
    }

    /// Remove and return the oldest element.
    T pop_front() {
        NEWTOP_EXPECTS(count_ != 0, "pop_front on an empty ring");
        T& oldest = slots_[head_];
        T out = std::move(oldest);
        oldest = T{};
        head_ = (head_ + 1) & (slots_.size() - 1);
        --count_;
        return out;
    }

    /// Remove every element matching `pred`, keeping the rest in order;
    /// returns how many went.  One pass, oldest first, calling `pred` once
    /// per element; no allocation.
    template <typename Pred>
    std::size_t erase_if(Pred pred) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < count_; ++i) {
            T& element = (*this)[i];
            if (pred(std::as_const(element))) continue;
            if (kept != i) (*this)[kept] = std::move(element);
            ++kept;
        }
        for (std::size_t i = kept; i < count_; ++i) (*this)[i] = T{};
        const std::size_t erased = count_ - kept;
        count_ = kept;
        return erased;
    }

    /// Drop every element; the capacity stays.
    void clear() {
        for (std::size_t i = 0; i < count_; ++i) (*this)[i] = T{};
        head_ = 0;
        count_ = 0;
    }

private:
    static constexpr std::size_t kMinCapacity = 4;

    [[nodiscard]] std::size_t slot(std::size_t i) const {
        return (head_ + i) & (slots_.size() - 1);
    }

    /// Double the ring, unrolled so the oldest element sits in slot 0.
    void grow() {
        // newtop-lint: allow(hot-path-alloc): the ring doubles only past its deepest queue so far; pushes and pops then reuse its slots
        std::vector<T> bigger(std::max(kMinCapacity, 2 * slots_.size()));
        for (std::size_t i = 0; i < count_; ++i) bigger[i] = std::move((*this)[i]);
        slots_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_{0};   // slot of the oldest element
    std::size_t count_{0};
};

}  // namespace newtop
