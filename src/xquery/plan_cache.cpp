#include "xquery/plan_cache.hpp"

namespace xr::xquery {

Translation TranslationCache::get(const PathQuery& query) {
    std::string key = query.to_string();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->translation;
    }
    ++stats_.misses;
    Translation t = translator_.translate(query);  // may throw; not cached
    if (capacity_ == 0) return t;
    lru_.push_front(Entry{key, t});
    index_.emplace(std::move(key), lru_.begin());
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++stats_.evictions;
    }
    return t;
}

PlanCacheStats TranslationCache::stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::size_t TranslationCache::size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
}

void TranslationCache::clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
}

}  // namespace xr::xquery
