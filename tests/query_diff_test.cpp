// Differential query fuzzer: xquery-over-SQL vs direct DOM evaluation.
//
// For a set of seeded random DTDs (src/gen), generate conforming document
// corpora, load them through the full mapping + loader stack, then fire
// randomly generated path queries at both evaluators — through the
// concurrent QueryService (so plan and result caches sit in the compared
// path) and through xquery::evaluate over the DOM.  Every translatable
// query must agree on cardinality, and on the value multiset for string
// queries.  Queries the translator rejects (QueryError) are skipped and
// counted; the paper documents those limitations (positional predicates,
// wildcards).
//
// Descendant ('//') steps and [ancestor::name] predicates translate to
// structural interval plans (DESIGN.md §10), held to the DOM's answer
// like every other query.  A sampled planner-off leg re-executes queries
// on a read snapshot with the cost-based join reorder (DESIGN.md §13)
// disabled, so planned and as-written orders both answer to the DOM.
//
// Replayable: the base seed prints at the start of the run and every
// divergence reports the DTD seed plus the exact query text.  Override
// with XMLREL_FUZZ_SEED / XMLREL_FUZZ_ITERS to reproduce or extend a run.
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/corpora.hpp"
#include "gen/doc_gen.hpp"
#include "gen/dtd_gen.hpp"
#include "helpers.hpp"
#include "query/service.hpp"
#include "rdb/integrity.hpp"
#include "rdb/snapshot.hpp"
#include "sql/executor.hpp"
#include "sql/planner.hpp"
#include "xquery/dom_eval.hpp"
#include "xquery/query.hpp"

namespace xr {
namespace {

using test::Stack;
using xquery::DomResult;
using xquery::PathQuery;
using xquery::Translation;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') return fallback;
    return std::strtoull(v, nullptr, 10);
}

/// One random DTD with a loaded corpus and everything needed to generate
/// and evaluate queries against it.
struct FuzzWorld {
    std::uint64_t dtd_seed = 0;
    std::unique_ptr<Stack> stack;
    std::vector<std::unique_ptr<xml::Document>> corpus;
    std::vector<const xml::Document*> views;
    std::unique_ptr<query::QueryService> service;

    /// element name → child element names (content-model edges).
    std::map<std::string, std::vector<std::string>> children;
    /// Transitive closure of `children` ('//' target pools)…
    std::map<std::string, std::vector<std::string>> descendants;
    /// …and its inverse ([ancestor::] candidate pools).
    std::map<std::string, std::vector<std::string>> ancestors;
    /// element name → its CDATA-ish attribute names.
    std::map<std::string, std::vector<std::string>> attributes;
    /// element names whose content is text-only.
    std::set<std::string> pcdata;
    /// Harvested literals: element name → texts seen in the corpus.
    std::map<std::string, std::vector<std::string>> texts;
    /// (element, attribute) → values seen in the corpus.
    std::map<std::pair<std::string, std::string>, std::vector<std::string>>
        attr_values;
    std::string root;
};

void harvest(const xml::Element& e, FuzzWorld& w) {
    for (const auto& a : e.attributes())
        w.attr_values[{e.name(), a.name}].push_back(a.value);
    std::string text = e.text();
    if (!text.empty() && e.child_elements().empty())
        w.texts[e.name()].push_back(std::move(text));
    for (const xml::Element* c : e.child_elements()) harvest(*c, w);
}

std::unique_ptr<FuzzWorld> make_world(std::uint64_t dtd_seed,
                                      std::mt19937_64& rng) {
    auto w = std::make_unique<FuzzWorld>();
    w->dtd_seed = dtd_seed;

    gen::DtdGenParams dp;
    dp.seed = dtd_seed;
    dp.element_count = 12 + static_cast<std::size_t>(rng() % 10);
    dp.pcdata_ratio = 0.45;
    dp.id_probability = 0.2;
    dp.idref_probability = 0.15;
    dtd::Dtd dtd = gen::generate_dtd(dp);

    w->stack = std::make_unique<Stack>(dtd);
    auto roots = dtd.root_candidates();
    w->root = roots.empty() ? dtd.elements().front().name : roots.front();

    for (std::size_t d = 0; d < 3; ++d) {
        gen::DocGenParams gp;
        gp.seed = dtd_seed * 131 + d;
        gp.max_elements = 150;
        auto doc = gen::generate_document(dtd, w->root, gp);
        w->stack->loader->load(*doc);
        harvest(*doc->root(), *w);
        w->views.push_back(doc.get());
        w->corpus.push_back(std::move(doc));
    }

    for (const auto& decl : w->stack->logical.elements()) {
        for (const auto& name : decl.content.referenced_names())
            w->children[decl.name].push_back(name);
        for (const auto& a : decl.attributes)
            w->attributes[decl.name].push_back(a.name);
        if (decl.content.is_text_only()) w->pcdata.insert(decl.name);
    }

    for (const auto& [name, kids] : w->children) {
        (void)kids;
        std::set<std::string> seen;
        std::vector<std::string> frontier{name};
        while (!frontier.empty()) {
            std::string cur = std::move(frontier.back());
            frontier.pop_back();
            auto it = w->children.find(cur);
            if (it == w->children.end()) continue;
            for (const auto& c : it->second)
                if (seen.insert(c).second) frontier.push_back(c);
        }
        for (const auto& d : seen) {
            w->descendants[name].push_back(d);
            w->ancestors[d].push_back(name);
        }
    }

    query::ServiceOptions sopts;
    sopts.threads = 2;
    w->service = std::make_unique<query::QueryService>(
        w->stack->db, w->stack->mapping, w->stack->schema, sopts);
    return w;
}

/// Pick a random literal that an element/attribute actually carries — or,
/// occasionally, a value that matches nothing (both sides must agree on
/// empty results too).
std::string pick_literal(const std::vector<std::string>* pool,
                         std::mt19937_64& rng) {
    if (pool == nullptr || pool->empty() || rng() % 5 == 0) return "no-match";
    return (*pool)[rng() % pool->size()];
}

std::string random_query(const FuzzWorld& w, std::mt19937_64& rng) {
    // Random root-anchored walk along content-model edges; '//' hops jump
    // straight to a transitive descendant (exercising the structural
    // interval plans), and [ancestor::name] predicates test the reverse.
    auto desc_pool =
        [&](const std::string& n) -> const std::vector<std::string>* {
        auto it = w.descendants.find(n);
        if (it == w.descendants.end() || it->second.empty()) return nullptr;
        return &it->second;
    };
    std::vector<std::pair<bool, std::string>> path;  // (via '//', name)
    if (rng() % 5 == 0 && desc_pool(w.root) != nullptr) {
        const auto& pool = *desc_pool(w.root);
        path.emplace_back(true, rng() % 6 == 0 ? w.root
                                               : pool[rng() % pool.size()]);
    } else {
        path.emplace_back(false, w.root);
    }
    std::size_t depth = 1 + rng() % 3;
    while (path.size() <= depth) {
        const std::string& cur = path.back().second;
        if (rng() % 6 == 0) {
            if (const auto* pool = desc_pool(cur)) {
                path.emplace_back(true, (*pool)[rng() % pool->size()]);
                continue;
            }
        }
        auto it = w.children.find(cur);
        if (it == w.children.end() || it->second.empty()) break;
        path.emplace_back(false, it->second[rng() % it->second.size()]);
    }

    std::string q;
    for (const auto& [desc, step] : path) q += (desc ? "//" : "/") + step;
    const std::string& last = path.back().second;

    // Optional predicate on the final step.
    if (rng() % 3 == 0) {
        auto ait = w.attributes.find(last);
        auto cit = w.children.find(last);
        switch (rng() % 4) {
            case 0:  // attribute compare: [@a = 'v']
                if (ait != w.attributes.end() && !ait->second.empty()) {
                    const std::string& attr =
                        ait->second[rng() % ait->second.size()];
                    auto pool = w.attr_values.find({last, attr});
                    q += "[@" + attr + " = '" +
                         pick_literal(pool == w.attr_values.end()
                                          ? nullptr
                                          : &pool->second,
                                      rng) +
                         "']";
                }
                break;
            case 1:  // child existence: [c]
                if (cit != w.children.end() && !cit->second.empty())
                    q += "[" + cit->second[rng() % cit->second.size()] + "]";
                break;
            case 2:  // child text compare: [c = 'v']
                if (cit != w.children.end() && !cit->second.empty()) {
                    const std::string& child =
                        cit->second[rng() % cit->second.size()];
                    auto pool = w.texts.find(child);
                    q += "[" + child + " = '" +
                         pick_literal(pool == w.texts.end() ? nullptr
                                                            : &pool->second,
                                      rng) +
                         "']";
                }
                break;
            default: {  // [ancestor::a] — usually real, sometimes a miss
                auto anc = w.ancestors.find(last);
                if (anc != w.ancestors.end() && !anc->second.empty() &&
                    rng() % 5 != 0) {
                    q += "[ancestor::" +
                         anc->second[rng() % anc->second.size()] + "]";
                } else if (!w.children.empty()) {
                    auto it = w.children.begin();
                    std::advance(it, rng() % w.children.size());
                    q += "[ancestor::" + it->first + "]";
                }
                break;
            }
        }
    }

    // Result flavour: elements, @attr, text(), or count(...).
    switch (rng() % 4) {
        case 0: {
            auto ait = w.attributes.find(last);
            if (ait != w.attributes.end() && !ait->second.empty())
                q += "/@" + ait->second[rng() % ait->second.size()];
            break;
        }
        case 1:
            if (w.pcdata.count(last) != 0) q += "/text()";
            break;
        case 2:
            return "count(" + q + ")";
        default:
            break;
    }
    return q;
}

/// The agreement oracle (mirrors the hand-written Agreement suite).
void expect_agreement(const std::vector<const xml::Document*>& views,
                      const std::string& text, const Translation& t,
                      const sql::ResultSet& rs) {
    DomResult dom = xquery::evaluate(views, xquery::parse_query(text));
    if (t.yield == Translation::Yield::kCount) {
        EXPECT_EQ(static_cast<std::size_t>(rs.scalar().as_integer()),
                  dom.size())
            << t.sql;
    } else if (t.yield == Translation::Yield::kStrings) {
        std::multiset<std::string> dom_values(dom.strings.begin(),
                                              dom.strings.end());
        if (dom_values.empty())
            for (const auto* n : dom.nodes) dom_values.insert(n->text());
        std::multiset<std::string> sql_values;
        for (const auto& row : rs.rows)
            if (!row.back().is_null())
                sql_values.insert(row.back().to_string());
        EXPECT_EQ(sql_values, dom_values) << t.sql;
    } else {
        EXPECT_EQ(rs.row_count(), dom.size()) << t.sql;
    }
}

TEST(QueryDiffFuzz, SqlAndDomNeverDiverge) {
    const std::uint64_t base_seed = env_u64("XMLREL_FUZZ_SEED", 20260806);
    const std::uint64_t target = env_u64("XMLREL_FUZZ_ITERS", 600);
    std::cout << "[query-diff] base seed " << base_seed << " (override with "
              << "XMLREL_FUZZ_SEED), target " << target << " comparisons\n";
    std::mt19937_64 rng(base_seed);

    std::vector<std::unique_ptr<FuzzWorld>> worlds;
    for (std::size_t i = 0; i < 6; ++i)
        worlds.push_back(make_world(base_seed + 1 + i, rng));

    std::uint64_t compared = 0;
    std::uint64_t skipped = 0;
    std::uint64_t attempts = 0;
    std::uint64_t interval_plans = 0;
    std::uint64_t planner_off_runs = 0;
    while (compared < target) {
        ASSERT_LT(attempts, target * 20)
            << "fuzzer can't reach " << target << " translatable queries: "
            << compared << " compared, " << skipped << " skipped";
        ++attempts;
        FuzzWorld& w = *worlds[rng() % worlds.size()];
        std::string text = random_query(w, rng);
        SCOPED_TRACE("dtd seed " + std::to_string(w.dtd_seed) + ", query " +
                     text + ", base seed " + std::to_string(base_seed));
        Translation t;
        try {
            t = w.service->translate(text);
        } catch (const QueryError&) {
            ++skipped;  // documented translation limitation — DOM-only
            continue;
        }
        query::QueryService::Result rs = w.service->path(text);
        expect_agreement(w.views, text, t, *rs);
        if (::testing::Test::HasFailure()) break;
        ++compared;
        if (t.interval_plan) ++interval_plans;
        // Planner-off oracle: the cost-based pass may have reordered the
        // translated joins; re-running the same SQL as written (every
        // third query — sample) on a fresh read snapshot must agree with
        // the DOM too.  It bypasses the service, so it is a genuine
        // re-execution, never a result-cache hit on the planned run.
        if (attempts % 3 == 0) {
            sql::PlannerOptions as_written;
            as_written.enable = false;
            rdb::ReadSnapshot snapshot = w.stack->db.read_snapshot();
            sql::ResultSet np_rs = sql::execute_read(
                snapshot.view(), t.sql, nullptr, {}, &as_written);
            ++planner_off_runs;
            expect_agreement(w.views, text, t, np_rs);
            if (::testing::Test::HasFailure()) break;
        }
        // Halfway through, rebuild one world's statistics: new statistics
        // must never corrupt in-flight serving or the cached translations.
        if (compared == target / 2) w.stack->db.analyze();
    }
    EXPECT_GE(compared, target);
    // The '//' / [ancestor::] generation must actually exercise interval
    // plans.
    EXPECT_GT(interval_plans, target / 20);
    // Generation walks real content-model edges, so most queries must
    // translate; a skip-dominated run means the generator regressed.
    EXPECT_LT(skipped, attempts / 2)
        << compared << " compared vs " << skipped << " skipped";
    EXPECT_GT(planner_off_runs, 0u);
    std::cout << "[query-diff] " << compared << " agreements ("
              << interval_plans << " interval plans, " << planner_off_runs
              << " planner-off), " << skipped
              << " untranslatable (skipped), across " << worlds.size()
              << " random DTDs\n";

    // The repeated queries above must have produced cache traffic; sanity
    // check the serving layer actually sat in the compared path.
    std::uint64_t served = 0;
    for (const auto& w : worlds) served += w->service->stats().path_queries;
    EXPECT_EQ(served, compared);
}

// MVCC churn leg (DESIGN.md §15): the differential oracle must hold
// while a background writer churns commits, checkpoints and analyze()
// against the same database.  The churn mutates a side table — the
// document tables stay fixed, so the DOM answer stays the oracle — but
// every query runs against a genuinely moving epoch sequence: each read
// pins whatever version is current, and a divergence here means a read
// observed a half-published epoch.
TEST(QueryDiffFuzz, AgreesUnderCommitCheckpointChurn) {
    const std::uint64_t seed = env_u64("XMLREL_FUZZ_SEED", 20260808);
    test::TempDir dir;
    test::DurableStack stack(gen::paper_dtd(), dir.path());
    auto corpus = gen::bibliography_corpus(6, 60, seed % 997);
    std::vector<const xml::Document*> views;
    for (auto& doc : corpus) {
        stack.loader->load(*doc);
        views.push_back(doc.get());
    }
    query::ServiceOptions sopts;
    sopts.threads = 2;
    query::QueryService service(stack.db, stack.mapping, stack.schema, sopts);
    service.execute_write(
        "CREATE TABLE churn (id INTEGER PRIMARY KEY, payload TEXT)");

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> churn_commits{0};
    std::thread churner([&] {
        std::uint64_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
            service.execute_write("INSERT INTO churn (id, payload) VALUES (" +
                                  std::to_string(1000000 + i) + ", 'c" +
                                  std::to_string(i) + "')");
            churn_commits.fetch_add(1, std::memory_order_relaxed);
            if (i % 5 == 4) (void)stack.db.checkpoint();
            if (i % 11 == 10) (void)stack.db.analyze();
            ++i;
        }
    });

    const std::vector<std::string> queries = {
        "count(/article)",
        "count(/article/author)",
        "count(//lastname)",
        "/article/title/text()",
        "//author/name/lastname/text()",
        "/article/author[ancestor::article]",
        "count(/article/contactauthor)",
    };
    std::uint64_t compared = 0;
    std::uint64_t churn_floor = 0;
    for (int round = 0; round < 40; ++round) {
        for (const auto& text : queries) {
            SCOPED_TRACE("churn round " + std::to_string(round) + ", query " +
                         text);
            Translation t;
            try {
                t = service.translate(text);
            } catch (const QueryError&) {
                continue;  // documented translation limitation
            }
            query::QueryService::Result rs = service.path(text);
            expect_agreement(views, text, t, *rs);
            ++compared;
            if (::testing::Test::HasFailure()) break;
        }
        if (::testing::Test::HasFailure()) break;
        // Don't let cache-hit rounds outrun the churner: each round must
        // observe at least one commit (i.e. a new epoch) since the last,
        // so the comparisons genuinely interleave with publication.
        while (churn_commits.load(std::memory_order_acquire) <= churn_floor)
            std::this_thread::yield();
        churn_floor = churn_commits.load(std::memory_order_acquire);
    }
    stop.store(true, std::memory_order_release);
    churner.join();

    EXPECT_GT(compared, 100u);
    EXPECT_GT(churn_commits.load(), 10u)
        << "background churn never ran — the leg lost its teeth";
    // The pinned-epoch read path must have cycled through many versions.
    rdb::MvccStats st = stack.db.mvcc_stats();
    EXPECT_GT(st.versions_published, churn_commits.load());
    EXPECT_EQ(stack.db.verify().errors(), 0u);
}

}  // namespace
}  // namespace xr
