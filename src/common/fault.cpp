#include "common/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>

namespace xr::fault {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

// Armed-point state.  The name is written under g_mutex before g_armed
// is released, and readers take the mutex in the slow path, so the fast
// path costs one atomic load and the slow path is fully serialized.
std::mutex g_mutex;
std::string g_point;
long g_countdown = 0;
bool g_abort = false;
long g_fires_left = 0;
std::function<void()> g_action;  ///< run instead of throwing, when set
std::atomic<long> g_hits{0};
std::atomic<bool> g_fired{false};

/// One-time arming from XMLREL_FAULT_INJECT="point[:count[:abort|repeat]]".
struct EnvArm {
    EnvArm() {
        const char* spec = std::getenv("XMLREL_FAULT_INJECT");
        if (spec == nullptr || *spec == '\0') return;
        std::string s(spec);
        std::string point = s;
        long count = 1;
        bool abort_instead = false;
        long fires = 1;
        if (auto colon = s.find(':'); colon != std::string::npos) {
            point = s.substr(0, colon);
            std::string rest = s.substr(colon + 1);
            if (auto colon2 = rest.find(':'); colon2 != std::string::npos) {
                std::string mode = rest.substr(colon2 + 1);
                abort_instead = mode == "abort";
                if (mode == "repeat") fires = std::numeric_limits<long>::max();
                rest = rest.substr(0, colon2);
            }
            if (!rest.empty()) count = std::strtol(rest.c_str(), nullptr, 10);
        }
        arm(point, count < 1 ? 1 : count, abort_instead, fires);
    }
};
const EnvArm g_env_arm;

}  // namespace

const std::vector<std::string_view>& known_points() {
    // Kept in sync with the catalogue comment at the top of fault.hpp
    // and DESIGN.md §7.  Sorted so the rejection message reads well.
    static const std::vector<std::string_view> kPoints = {
        "bulk.merge",       "exec.cancel_poll", "loader.resolve",
        "loader.shred",     "rdb.index_rebuild", "recovery.replay",
        "service.admit",    "snapshot.rename",  "snapshot.verify",
        "snapshot.write",   "wal.append",       "wal.fsync",
        "write.retry",      "xml.parse",
    };
    return kPoints;
}

namespace {

bool arm_with(std::string_view point, long countdown, bool abort_instead,
              long fires, std::function<void()> action) {
    const auto& known = known_points();
    if (std::find(known.begin(), known.end(), point) == known.end()) {
        std::string names;
        for (std::string_view p : known) {
            if (!names.empty()) names += ", ";
            names += p;
        }
        std::fprintf(stderr,
                     "xmlrel: fault: unknown fault point '%.*s' — not arming "
                     "(known points: %s)\n",
                     static_cast<int>(point.size()), point.data(),
                     names.c_str());
        // A rejected arm still clears any previous arming: the caller
        // asked for a fresh fault state and must not inherit a stale one.
        std::scoped_lock lock(g_mutex);
        g_action = nullptr;
        g_hits.store(0, std::memory_order_relaxed);
        g_fired.store(false, std::memory_order_relaxed);
        detail::g_armed.store(false, std::memory_order_release);
        return false;
    }
    std::scoped_lock lock(g_mutex);
    g_point = point;
    g_action = std::move(action);
    g_countdown = countdown < 1 ? 1 : countdown;
    g_abort = abort_instead;
    g_fires_left = fires < 1 ? 1 : fires;
    g_hits.store(0, std::memory_order_relaxed);
    g_fired.store(false, std::memory_order_relaxed);
    detail::g_armed.store(true, std::memory_order_release);
    return true;
}

}  // namespace

bool arm(std::string_view point, long countdown, bool abort_instead,
         long fires) {
    return arm_with(point, countdown, abort_instead, fires, nullptr);
}

bool arm_action(std::string_view point, std::function<void()> action) {
    return arm_with(point, 1, false, 1, std::move(action));
}

void disarm() {
    std::scoped_lock lock(g_mutex);
    g_action = nullptr;
    detail::g_armed.store(false, std::memory_order_release);
}

bool armed() { return detail::g_armed.load(std::memory_order_acquire); }

bool fired() { return g_fired.load(std::memory_order_acquire); }

long hits() { return g_hits.load(std::memory_order_acquire); }

namespace detail {

void hit(const char* point) {
    std::unique_lock lock(g_mutex);
    if (!g_armed.load(std::memory_order_relaxed) || g_point != point) return;
    g_hits.fetch_add(1, std::memory_order_relaxed);
    if (--g_countdown > 0) return;
    // With fires left, stay armed and fail on every subsequent hit (retry
    // exhaustion testing); the final fire disarms before throwing so
    // recovery paths that re-enter the same point (e.g. an index rebuild
    // during rollback) run clean.
    if (--g_fires_left > 0) {
        g_countdown = 1;
    } else {
        g_armed.store(false, std::memory_order_release);
    }
    g_fired.store(true, std::memory_order_release);
    if (g_action) {
        std::function<void()> action = std::move(g_action);
        g_action = nullptr;
        lock.unlock();
        action();
        return;
    }
    if (g_abort) std::abort();
    std::string message = "injected fault at '" + g_point + "'";
    lock.unlock();
    throw InjectedFault(std::move(message));
}

}  // namespace detail

}  // namespace xr::fault
