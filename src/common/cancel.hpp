// Cooperative cancellation for long-running queries (DESIGN.md §11).
//
// A CancelToken is the request-lifecycle handle the query service hands to
// every execution: it bundles an explicit-cancel flag, a steady-clock
// deadline and per-query materialization budgets (rows / bytes) behind one
// cheap check() call.  Execution code polls the token at its natural loop
// boundaries (the SQL executor every kCancelPollInterval rows; the query
// service once before translation); a fired condition surfaces as the
// matching CancelledError subclass, which unwinds through the ordinary
// error paths — a cancelled query leaves no state behind because queries
// never had side effects to begin with.
//
// Tokens are value types sharing state: copying a token yields another
// handle on the same query, so the service can keep one half (to cancel on
// client abandon) while the executor polls the other.  A default-constructed
// token is *inert* — no allocation, every operation a no-op — which keeps
// the non-serving call sites (tests, benches, the inline CLI path) at zero
// overhead.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>

#include "common/error.hpp"

namespace xr {

/// A point in steady-clock time after which a query must stop.  Default
/// construction means "no deadline".
class Deadline {
public:
    using Clock = std::chrono::steady_clock;

    Deadline() = default;

    /// Deadline `d` from now; non-positive durations are already expired.
    static Deadline after(Clock::duration d) { return at(Clock::now() + d); }
    static Deadline at(Clock::time_point tp) {
        Deadline dl;
        dl.at_ = tp;
        dl.bounded_ = true;
        return dl;
    }

    [[nodiscard]] bool bounded() const { return bounded_; }
    [[nodiscard]] bool expired() const {
        return bounded_ && Clock::now() >= at_;
    }
    /// Time left; Clock::duration::max() when unbounded, never negative.
    [[nodiscard]] Clock::duration remaining() const {
        if (!bounded_) return Clock::duration::max();
        Clock::time_point now = Clock::now();
        return now >= at_ ? Clock::duration::zero() : at_ - now;
    }
    [[nodiscard]] Clock::time_point time_point() const { return at_; }

private:
    Clock::time_point at_{};
    bool bounded_ = false;
};

class CancelToken {
public:
    /// Everything a query may be bounded by; 0 budgets mean unlimited.
    struct Limits {
        Deadline deadline;
        std::size_t row_budget = 0;   ///< materialized row contexts + rows
        std::size_t byte_budget = 0;  ///< approximate materialized bytes
    };

    /// Inert token: active() is false and every operation is a no-op.
    CancelToken() = default;

    /// Live token enforcing `limits`; the no-limits overload yields a
    /// token that only supports explicit cancellation.
    static CancelToken make() { return make(Limits{}); }
    static CancelToken make(Limits limits) {
        CancelToken t;
        t.state_ = std::make_shared<State>();
        t.state_->limits = limits;
        return t;
    }

    [[nodiscard]] bool active() const { return state_ != nullptr; }

    /// Flag the query for cancellation; the next check() throws.  Safe from
    /// any thread, idempotent, and a no-op on an inert token.
    void request_cancel() const noexcept {
        if (state_) state_->cancelled.store(true, std::memory_order_release);
    }

    [[nodiscard]] bool cancel_requested() const {
        return state_ && state_->cancelled.load(std::memory_order_acquire);
    }

    [[nodiscard]] Deadline deadline() const {
        return state_ ? state_->limits.deadline : Deadline{};
    }

    [[nodiscard]] bool expired() const {
        return state_ && state_->limits.deadline.expired();
    }

    /// The cancellation checkpoint: throws QueryCancelled when cancel was
    /// requested, DeadlineExceeded when the deadline passed.  An explicit
    /// cancel wins over a simultaneous deadline miss — the client asked.
    void check() const {
        if (!state_) return;
        if (state_->cancelled.load(std::memory_order_acquire))
            throw QueryCancelled("query cancelled");
        if (state_->limits.deadline.expired())
            throw DeadlineExceeded("query deadline exceeded");
    }

    /// Budget accounting for materialized state; throws ResourceExhausted
    /// past the corresponding budget.  Counters are atomic only so that a
    /// monitoring thread may read them; each query is executed by one
    /// thread at a time.
    void charge_rows(std::size_t n = 1) const {
        if (!state_ || state_->limits.row_budget == 0) return;
        std::size_t total =
            state_->rows.fetch_add(n, std::memory_order_relaxed) + n;
        if (total > state_->limits.row_budget)
            throw ResourceExhausted(
                "query row budget of " +
                std::to_string(state_->limits.row_budget) +
                " materialized rows exceeded");
    }
    void charge_bytes(std::size_t n) const {
        if (!state_ || state_->limits.byte_budget == 0) return;
        std::size_t total =
            state_->bytes.fetch_add(n, std::memory_order_relaxed) + n;
        if (total > state_->limits.byte_budget)
            throw ResourceExhausted(
                "query byte budget of " +
                std::to_string(state_->limits.byte_budget) +
                " materialized bytes exceeded");
    }

    [[nodiscard]] std::size_t rows_charged() const {
        return state_ ? state_->rows.load(std::memory_order_relaxed) : 0;
    }
    [[nodiscard]] std::size_t bytes_charged() const {
        return state_ ? state_->bytes.load(std::memory_order_relaxed) : 0;
    }

private:
    struct State {
        std::atomic<bool> cancelled{false};
        Limits limits;
        std::atomic<std::size_t> rows{0};
        std::atomic<std::size_t> bytes{0};
    };

    std::shared_ptr<State> state_;
};

}  // namespace xr
