#include "loader/reconstruct.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/strings.hpp"
#include "rel/translate.hpp"
#include "xml/parser.hpp"

namespace xr::loader {

namespace {

using rdb::RowId;
using rdb::Value;

/// Row ids of `table` whose `column` equals `key`, sorted by the ord
/// column when present (document order), else by row id.
std::vector<RowId> rows_by(const rdb::Table& table, std::string_view column,
                           std::int64_t key) {
    std::vector<RowId> ids = table.lookup(column, Value(key));
    int ord = table.def().column_index("ord");
    if (ord >= 0) {
        std::stable_sort(ids.begin(), ids.end(), [&](RowId a, RowId b) {
            return table.row(a)[ord].index_order(table.row(b)[ord]) ==
                   std::strong_ordering::less;
        });
    }
    return ids;
}

}  // namespace

Reconstructor::Reconstructor(const mapping::MappingResult& mapping,
                             const rel::RelationalSchema& schema,
                             const rdb::Database& db)
    : mapping_(mapping), schema_(schema), db_(db) {}

std::unique_ptr<xml::Document> Reconstructor::reconstruct(
    std::int64_t doc) const {
    const rdb::Table* docs = db_.table("xrel_docs");
    if (docs == nullptr)
        throw SchemaError(
            "cannot reconstruct: xrel_docs metadata table is missing");
    int doc_col = docs->def().column_index("doc");
    for (RowId id = 0; id < docs->row_count(); ++id) {
        rdb::RowView row = docs->row(id);
        if (row[doc_col].as_integer() != doc) continue;
        std::string root_entity = docs->at(id, "root_entity").as_text();
        std::int64_t root_pk = docs->at(id, "root_pk").as_integer();
        auto out = std::make_unique<xml::Document>();
        out->set_root(reconstruct_element(root_entity, root_pk));
        xml::DoctypeDecl doctype;
        doctype.root_name = root_entity;
        doctype.system_id = root_entity + ".dtd";
        out->set_doctype(std::move(doctype));
        return out;
    }
    throw SchemaError("no loaded document with id " + std::to_string(doc));
}

std::unique_ptr<xml::Element> Reconstructor::reconstruct_element(
    const std::string& entity, std::int64_t pk) const {
    auto element = std::make_unique<xml::Element>(entity);
    fill_element(*element, entity, pk);
    return element;
}

void Reconstructor::fill_element(xml::Element& element,
                                 const std::string& entity,
                                 std::int64_t pk) const {
    const rel::TableSchema* schema = schema_.entity_table(entity);
    if (schema == nullptr)
        throw SchemaError("no entity table for '" + entity + "'");
    const rdb::Table& table = db_.require(schema->name);
    auto rowid = table.find_pk_rowid(pk);
    if (!rowid)
        throw SchemaError("no row " + std::to_string(pk) + " in '" +
                          schema->name + "'");
    rdb::RowView row = table.row(*rowid);

    // Which column sources are distilled children rather than attributes?
    std::map<std::string, const mapping::DistilledAttribute*> distilled;
    for (const auto* d : mapping_.metadata.distilled_of(entity))
        distilled[d->attribute] = d;

    // XML attributes (declared ones; distilled values become elements).
    for (std::size_t c = 0; c < schema->columns.size(); ++c) {
        const rel::Column& col = schema->columns[c];
        if (col.role != rel::ColumnRole::kAttribute) continue;
        if (distilled.contains(col.source)) continue;
        if (row[c].is_null()) continue;
        element.set_attribute(col.source, row[c].as_text());
    }

    // IDREF attributes live in reference tables.
    for (const auto& ref : mapping_.converted.references) {
        if (ref.source != entity) continue;
        for (const std::string& cand :
             {ref.attribute + "_" + ref.source, ref.attribute}) {
            const rel::TableSchema* rt =
                schema_.table_for(rel::TableKind::kReferenceRel, cand);
            if (rt == nullptr) continue;
            const rel::Column* sc = rt->column("source_pk");
            if (sc == nullptr || sc->references != schema->name) continue;
            const rdb::Table& refs = db_.require(rt->name);
            std::vector<std::string> tokens;
            for (RowId id : rows_by(refs, "source_pk", pk))
                tokens.push_back(refs.at(id, "idref").as_text());
            if (!tokens.empty())
                element.set_attribute(ref.attribute, join(tokens, " "));
            break;
        }
    }

    const mapping::ConvertedElement* ce = mapping_.converted.element(entity);
    if (ce == nullptr) return;

    switch (ce->residual) {
        case mapping::ResidualContent::kEmpty:
            return;
        case mapping::ResidualContent::kPCData: {
            int c = schema->column_index("pcdata");
            if (c >= 0 && !row[c].is_null())
                element.append_text(row[c].as_text());
            return;
        }
        case mapping::ResidualContent::kAny: {
            int c = schema->column_index("raw_xml");
            if (c >= 0 && !row[c].is_null() && !row[c].as_text().empty()) {
                // Re-parse the stored fragment and splice its children.
                xml::ParseOptions popt;
                popt.keep_whitespace_text = true;
                auto fragment = xml::parse_document(
                    "<x>" + row[c].as_text() + "</x>", popt);
                for (auto& child : fragment->root()->take_children())
                    element.append_child(std::move(child));
            }
            return;
        }
        case mapping::ResidualContent::kMixed: {
            // Exact interleaving: xrel_text segment rows and nested member
            // rows both carry the node index as ord — merge by it.
            const rdb::Table* segments = db_.table(rel::kTextSegmentsTable);
            struct Item {
                std::int64_t ord;
                std::function<void()> emit;
            };
            std::vector<Item> items;
            if (segments != nullptr) {
                int seg_entity = segments->def().column_index("entity");
                int seg_ord = segments->def().column_index("ord");
                int seg_content = segments->def().column_index("content");
                for (RowId id : segments->lookup("parent_pk", Value(pk))) {
                    rdb::RowView seg = segments->row(id);
                    if (!(seg[seg_entity] == Value(entity))) continue;
                    std::string content = seg[seg_content].as_text();
                    std::int64_t ord =
                        seg_ord >= 0 && !seg[seg_ord].is_null()
                            ? seg[seg_ord].as_integer()
                            : 0;
                    items.push_back({ord, [&element, content] {
                                         element.append_text(content);
                                     }});
                }
            }
            for (const auto& n : mapping_.converted.nested) {
                if (n.parent != entity) continue;
                const rel::TableSchema* nt =
                    schema_.table_for(rel::TableKind::kNestedRel, n.name);
                if (nt == nullptr) continue;
                const rdb::Table& nested = db_.require(nt->name);
                for (RowId id : rows_by(nested, "parent_pk", pk)) {
                    std::string child = n.child;
                    std::int64_t cpk = nested.at(id, "child_pk").as_integer();
                    std::int64_t ord = nested.at(id, "ord").is_null()
                                           ? 0
                                           : nested.at(id, "ord").as_integer();
                    items.push_back({ord, [this, &element, child, cpk] {
                                         element.append_child(
                                             reconstruct_element(child, cpk));
                                     }});
                }
            }
            // Overflow subtrees inside mixed content carry node-index ords
            // too, so they merge exactly.
            if (const rdb::Table* overflow = db_.table(rel::kOverflowTable)) {
                int ent = overflow->def().column_index("parent_entity");
                int oord = overflow->def().column_index("ord");
                int raw = overflow->def().column_index("raw_xml");
                for (RowId id : overflow->lookup("parent_pk", Value(pk))) {
                    rdb::RowView orow = overflow->row(id);
                    if (!(orow[ent] == Value(entity))) continue;
                    std::string fragment_text = orow[raw].as_text();
                    std::int64_t ord = oord >= 0 && !orow[oord].is_null()
                                           ? orow[oord].as_integer()
                                           : 0;
                    items.push_back(
                        {ord, [this, &element, fragment_text] {
                             xml::ParseOptions popt;
                             popt.keep_whitespace_text = true;
                             auto fragment = xml::parse_document(
                                 "<x>" + fragment_text + "</x>", popt);
                             for (auto& child : fragment->root()->take_children())
                                 element.append_child(std::move(child));
                         }});
                }
            }
            std::stable_sort(items.begin(), items.end(),
                             [](const Item& a, const Item& b) {
                                 return a.ord < b.ord;
                             });
            if (!items.empty()) {
                for (const Item& item : items) item.emit();
                return;
            }
            // Legacy fallback (no segment table): concatenated text.
            int c = schema->column_index("pcdata");
            if (c >= 0 && !row[c].is_null() && !row[c].as_text().empty())
                element.append_text(row[c].as_text());
            break;  // members handled below like nested relationships
        }
        case mapping::ResidualContent::kStripped:
            break;
    }

    // Structural content: distilled children and relationship instances,
    // replayed in content-model order (the relationship positions), with
    // instances of repeated relationships sorted by their ord columns.
    struct Part {
        std::size_t position;
        std::function<void()> emit;
    };
    std::vector<Part> parts;

    for (const auto& [attr, d] : distilled) {
        int c = schema->column_index(schema->column_by_source(attr)->name);
        if (c < 0 || row[c].is_null()) continue;
        std::string child_name = d->original_child;
        std::string text = row[c].as_text();
        parts.push_back({d->position, [&element, child_name, text] {
                             element.append_element(child_name)
                                 ->append_text(text);
                         }});
    }

    for (const auto& g : mapping_.converted.nested_groups) {
        if (g.parent != entity) continue;
        const rel::TableSchema* gt =
            schema_.table_for(rel::TableKind::kGroupRel, g.name);
        if (gt == nullptr) continue;
        const rdb::Table& groups = db_.require(gt->name);
        const mapping::NestedGroupDecl* decl = &g;
        parts.push_back({g.position, [this, &element, &groups, decl, pk] {
                             for (RowId id : rows_by(groups, "parent_pk", pk)) {
                                 std::int64_t gpk =
                                     groups.at(id, "pk").as_integer();
                                 emit_group_instance(element, *decl, gpk);
                             }
                         }});
    }

    for (const auto& n : mapping_.converted.nested) {
        if (n.parent != entity) continue;
        const rel::TableSchema* nt =
            schema_.table_for(rel::TableKind::kNestedRel, n.name);
        if (nt == nullptr) continue;
        const rdb::Table& nested = db_.require(nt->name);
        const mapping::NestedDecl* decl = &n;
        parts.push_back({n.position, [this, &element, &nested, decl, pk] {
                             for (RowId id : rows_by(nested, "parent_pk", pk)) {
                                 element.append_child(reconstruct_element(
                                     decl->child,
                                     nested.at(id, "child_pk").as_integer()));
                             }
                         }});
    }

    std::stable_sort(parts.begin(), parts.end(),
                     [](const Part& a, const Part& b) {
                         return a.position < b.position;
                     });
    for (const Part& part : parts) part.emit();

    // Overflow subtrees (lenient loads) come back too — appended after the
    // mapped children in their original relative order, best-effort since
    // their model positions are unknown by definition.
    if (const rdb::Table* overflow = db_.table(rel::kOverflowTable)) {
        int ent = overflow->def().column_index("parent_entity");
        int raw = overflow->def().column_index("raw_xml");
        for (RowId id : rows_by(*overflow, "parent_pk", pk)) {
            rdb::RowView orow = overflow->row(id);
            if (!(orow[ent] == Value(entity))) continue;
            xml::ParseOptions popt;
            popt.keep_whitespace_text = true;
            auto fragment = xml::parse_document(
                "<x>" + orow[raw].as_text() + "</x>", popt);
            for (auto& child : fragment->root()->take_children())
                element.append_child(std::move(child));
        }
    }
}

void Reconstructor::emit_group_instance(
    xml::Element& parent, const mapping::NestedGroupDecl& decl,
    std::int64_t group_pk) const {
    const rel::TableSchema* gt =
        schema_.table_for(rel::TableKind::kGroupRel, decl.name);
    const rdb::Table& groups = db_.require(gt->name);
    auto rowid = groups.find_pk_rowid(group_pk);
    if (!rowid) return;
    rdb::RowView row = groups.row(*rowid);

    // Distilled attributes of the virtual group element, by model position.
    const std::string virtual_name = decl.name.substr(1);
    std::map<std::size_t, const mapping::DistilledAttribute*> distilled;
    for (const auto* d : mapping_.metadata.distilled_of(virtual_name))
        distilled[d->position] = d;

    // Merge distilled slots and surviving members back into the original
    // model order: distilled entries own their recorded positions, members
    // take the remaining slots left-to-right.
    std::vector<const dtd::Particle*> members;
    for (const auto& m : decl.group.children)
        if (m.is_element()) members.push_back(&m);
    std::size_t member_index = 0;
    const std::size_t total_slots = members.size() + distilled.size();

    for (std::size_t slot = 0; slot < total_slots; ++slot) {
        if (auto it = distilled.find(slot); it != distilled.end()) {
            const rel::Column* col = gt->column_by_source(it->second->attribute);
            int c = col != nullptr ? gt->column_index(col->name) : -1;
            if (c >= 0 && !row[c].is_null())
                parent.append_element(it->second->original_child)
                    ->append_text(row[c].as_text());
            continue;
        }
        if (member_index >= members.size()) continue;
        const dtd::Particle& member = *members[member_index++];
        if (decl.is_virtual_member(member.name)) {
            // Chained group: its instances hang off this group row.
            const mapping::NestedGroupDecl* chained =
                mapping_.converted.nested_group("N" + member.name);
            if (chained != nullptr) {
                const rel::TableSchema* ct =
                    schema_.table_for(rel::TableKind::kGroupRel, chained->name);
                if (ct != nullptr) {
                    const rdb::Table& chain_rows = db_.require(ct->name);
                    for (RowId id : rows_by(chain_rows, "parent_pk", group_pk))
                        emit_group_instance(
                            parent, *chained,
                            chain_rows.at(id, "pk").as_integer());
                }
            }
            continue;
        }
        if (const rel::TableSchema* link =
                schema_.link_table(decl.name, member.name)) {
            const rdb::Table& links = db_.require(link->name);
            for (RowId id : rows_by(links, "group_pk", group_pk)) {
                parent.append_child(reconstruct_element(
                    member.name, links.at(id, "member_pk").as_integer()));
            }
        } else if (const rel::Column* col = gt->column_by_source(member.name)) {
            int c = gt->column_index(col->name);
            if (c >= 0 && !row[c].is_null())
                parent.append_child(
                    reconstruct_element(member.name, row[c].as_integer()));
        }
    }
}

}  // namespace xr::loader
