// Path-query → SQL translation over the mapped relational schema —
// the paper's "how do we transform ... queries into meaningful SQL
// queries?" (Section 5, Query Processing).
//
// Translation navigates by mapping provenance: a path step becomes a join
// chain through NESTED / NESTED_GROUP / member-link tables; a step that was
// distilled into an attribute column becomes a column access on its owner
// table; predicates become WHERE conditions (existence predicates are
// enforced by the inner joins themselves).  A positional predicate counts
// ord-predecessors over the NESTED table its step arrived through; where
// there is none it raises QueryError — the documented limitation the
// paper's metadata discussion anticipates.
//
// Descendant ('//') steps and [ancestor::name] predicates translate via
// the structural (pre, post) interval labels (DESIGN.md §10): descendant
// containment is a single range join, and a root '//x' is a bare scan of
// x's entity table.  Translation reads only the mapping and the schema,
// so a Translation never goes stale.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "mapping/pipeline.hpp"
#include "rel/schema.hpp"
#include "xquery/query.hpp"

namespace xr::xquery {

struct Translation {
    std::string sql;
    enum class Yield {
        kNodes,    ///< SELECT DISTINCT <alias>.pk — one row per element
        kStrings,  ///< last column carries the attribute/text value
        kCount,    ///< single COUNT value
    };
    Yield yield = Yield::kNodes;
    /// Number of JOIN clauses — the query-shape metric for the benches.
    std::size_t join_count = 0;
    /// Entity whose rows the query selects (kNodes / kStrings) — result
    /// materialization reconstructs elements of this type from the pks.
    std::string target_entity;
    /// True when any step or predicate used an interval containment plan.
    bool interval_plan = false;
    /// EXPLAIN-lite: one clause per non-trivial planning decision.
    std::string plan_notes;
};

class SqlTranslator {
public:
    SqlTranslator(const mapping::MappingResult& mapping,
                  const rel::RelationalSchema& schema);

    /// Translate a parsed query; throws xr::QueryError when the query has
    /// no relational equivalent (unknown names, positional predicates).
    [[nodiscard]] Translation translate(const PathQuery& query) const;

private:
    struct Hop {
        enum class Kind { kNested, kGroup, kMemberColumn, kMemberLink };
        Kind kind = Kind::kNested;
        std::string to;  ///< node name: entity or group-relationship
        const rel::TableSchema* rel_table = nullptr;
        std::string member_column;  ///< for kMemberColumn
        const rel::TableSchema* target_table = nullptr;  ///< entity table
    };

    const mapping::MappingResult& mapping_;
    const rel::RelationalSchema& schema_;
    std::map<std::string, std::vector<Hop>> edges_;
    /// node → (child element name → value column on the node's table)
    std::map<std::string, std::map<std::string, std::string>> distilled_;
    /// node name → its table (entity or group relationship)
    std::map<std::string, const rel::TableSchema*> node_tables_;
    /// (source entity, IDREF attribute) → its REFERENCE table; such
    /// attributes live in reference rows, not entity columns.
    std::map<std::pair<std::string, std::string>, const rel::TableSchema*>
        ref_tables_;

    [[nodiscard]] std::vector<const Hop*> find_path(const std::string& from,
                                                    const std::string& to) const;
};

}  // namespace xr::xquery
