#include "rdb/stats.hpp"

#include <algorithm>

namespace xr::rdb {

namespace {

/// Finalizing mix (splitmix64): Value::hash() is a container hash with
/// no uniformity guarantee in the low or high bits; KMV needs hashes
/// that behave like uniform draws over the full 64-bit space.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

}  // namespace

void NdvSketch::add(const Value& v) {
    std::uint64_t h = mix64(static_cast<std::uint64_t>(v.hash()));
    bool full = mins_.size() >= k_;
    if (full && h >= mins_.back()) return;  // not among the k smallest
    auto pos = std::lower_bound(mins_.begin(), mins_.end(), h);
    if (pos != mins_.end() && *pos == h) return;  // already counted
    mins_.insert(pos, h);
    if (full) mins_.pop_back();
}

std::uint64_t NdvSketch::estimate() const {
    if (mins_.size() < k_) return mins_.size();  // exact below capacity
    // The k-th minimum of n uniform draws over [0, 2^64) sits near
    // k/n · 2^64, so n ≈ (k-1) · 2^64 / kth_min (the -1 debiases).
    double kth = static_cast<double>(mins_.back());
    if (kth <= 0.0) return mins_.size();
    double est = (static_cast<double>(k_) - 1.0) * 18446744073709551616.0 / kth;
    return est < 1.0 ? 1 : static_cast<std::uint64_t>(est);
}

void ColumnStats::fold(const Value& v) {
    if (v.is_null()) {
        ++nulls;
        return;
    }
    if (min.is_null() || v.index_order(min) == std::strong_ordering::less)
        min = v;
    if (max.is_null() || v.index_order(max) == std::strong_ordering::greater)
        max = v;
    sketch.add(v);
}

}  // namespace xr::rdb
