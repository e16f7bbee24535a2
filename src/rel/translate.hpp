// ER → relational translation (the classical step the paper delegates to
// [EN89], instantiated for the three relationship kinds of the mapping).
//
// Layout produced:
//   * entity E            → table e(pk, doc, <attributes...>, [pcdata|raw_xml],
//                            pre, post, level)   [structural labels, §10]
//   * NESTED N(P→C)       → table n(pk, doc, parent_pk→P, child_pk→C, ord)
//   * NESTED_GROUP NG     → table ng(pk, doc, parent_pk→P, ord, <rel attrs>,
//                            <m_pk→M for each non-repeatable member>)
//                            + table ng_m(pk, doc, group_pk→NG, member_pk→M,
//                            ord) for each repeatable member
//   * REFERENCE r(S→...)  → table ref_r(pk, doc, source_pk→S, idref, ord,
//                            target_entity, target_pk)   [polymorphic target]
//   * ID registry         → table xrel_ids(pk, doc, idval, entity, entity_pk)
//   * metadata            → xrel_elements / xrel_attributes /
//                            xrel_relationships / xrel_schema_order /
//                            xrel_mapping   (content filled by materialize())
//
// Every relationship table carries an `ord` column — the paper's suggested
// mechanism for preserving data ordering ("an ordering column in a table to
// number the data rows").
#pragma once

#include "mapping/pipeline.hpp"
#include "rel/schema.hpp"

namespace xr::rel {

struct TranslateOptions {
    /// Add a `doc` column to every table (multi-document corpora).
    bool doc_column = true;
    /// Add `ord` data-ordering columns to relationship tables.
    bool ordinal_columns = true;
    /// Ablation: restrict `ord` columns to relationships that can actually
    /// repeat (occurrence '*' or '+').
    bool ordinal_only_where_repeatable = false;
    /// Emit the xrel_* metadata table definitions.
    bool metadata_tables = true;
};

[[nodiscard]] RelationalSchema translate(const mapping::MappingResult& mapping,
                                         const TranslateOptions& options = {});

/// Name of the global ID registry table.
inline constexpr const char* kIdRegistryTable = "xrel_ids";

/// Name of the mixed-content text-segment table (only created when the DTD
/// declares mixed content): each row is one text node, keyed by owner
/// entity row and ordered by the node index — so text/element interleaving
/// survives the relational trip exactly.
inline constexpr const char* kTextSegmentsTable = "xrel_text";

/// Name of the overflow table: subtrees a lenient load could not map are
/// stored as raw XML here (the STORED-style "overflow graph" the paper's
/// related-work section describes), so even document-centric inputs lose
/// nothing.
inline constexpr const char* kOverflowTable = "xrel_overflow";

}  // namespace xr::rel
