// LRU cache of path-query → SQL translations (DESIGN.md §9).
//
// Translation is pure — it depends only on the mapping and the relational
// schema, both frozen once a database is loaded — so a cached Translation
// never goes stale, and the key is the query alone.  Table statistics do
// not enter it: the cost-based planner runs on every execution of the
// cached SQL, never here.  The cache amortizes the join-path search that
// SqlTranslator::translate performs per query.  Keys are *normalized*
// query text (parse → to_string), so `/a[ x = 'y' ]/b` and
// `/a[x='y']/b` share one entry.
//
// Thread-safe: a single mutex guards the map, the recency list and the
// counters.  Translation happens under the lock — it is cheap relative
// to execution, and doing so keeps a thundering herd of first requests
// for the same query from translating it N times.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>

#include "xquery/sql_translate.hpp"

namespace xr::xquery {

/// Counter snapshot; taken atomically with respect to cache operations.
struct PlanCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    [[nodiscard]] double hit_ratio() const {
        std::uint64_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
};

class TranslationCache {
public:
    /// `capacity` bounds the number of cached translations (LRU beyond it;
    /// 0 disables caching — every get() translates).
    TranslationCache(const SqlTranslator& translator, std::size_t capacity)
        : translator_(translator), capacity_(capacity) {}

    TranslationCache(const TranslationCache&) = delete;
    TranslationCache& operator=(const TranslationCache&) = delete;

    /// Translate `query`, serving repeats from the cache.  Throws
    /// xr::QueryError exactly as SqlTranslator::translate does (failures
    /// are not cached — an untranslatable query stays an error).
    [[nodiscard]] Translation get(const PathQuery& query);

    [[nodiscard]] PlanCacheStats stats() const;
    [[nodiscard]] std::size_t size() const;
    void clear();

private:
    struct Entry {
        std::string key;
        Translation translation;
    };

    const SqlTranslator& translator_;
    std::size_t capacity_;

    mutable std::mutex mu_;
    std::list<Entry> lru_;  ///< front = most recently used
    std::map<std::string, std::list<Entry>::iterator> index_;
    PlanCacheStats stats_;
};

}  // namespace xr::xquery
