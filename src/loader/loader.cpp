#include "loader/loader.hpp"

#include <algorithm>

#include "common/fault.hpp"
#include "common/strings.hpp"
#include "rel/translate.hpp"
#include "xml/serializer.hpp"

namespace xr::loader {

namespace {

using rdb::Value;

rdb::Row null_row(const rel::TableSchema& t) {
    return rdb::Row(t.columns.size());
}

int col(const rel::TableSchema& t, std::string_view name) {
    return t.column_index(name);
}

/// Loader::load's sink: rows go straight into table storage.
class DirectSink final : public RowSink {
public:
    std::int64_t allocate_pk(rdb::Table& table) override {
        return table.allocate_pk();
    }
    void append(rdb::Table& table, rdb::Row row) override {
        table.insert(std::move(row));
    }
};

}  // namespace

std::string_view to_string(FailurePolicy policy) {
    switch (policy) {
        case FailurePolicy::kFailFast: return "fail_fast";
        case FailurePolicy::kSkip: return "skip";
        case FailurePolicy::kQuarantine: return "quarantine";
    }
    return "?";
}

rdb::Table& ensure_quarantine_table(rdb::Database& db) {
    if (rdb::Table* t = db.table(kQuarantineTable)) return *t;
    rdb::TableDef def;
    def.name = kQuarantineTable;
    def.columns = {
        {"pk", rdb::ValueType::kInteger, true, true},
        {"idx", rdb::ValueType::kInteger, true, false},
        {"error_type", rdb::ValueType::kText, true, false},
        {"error_message", rdb::ValueType::kText, false, false},
        {"line", rdb::ValueType::kInteger, false, false},
        {"col", rdb::ValueType::kInteger, false, false},
        {"raw_xml", rdb::ValueType::kText, false, false},
    };
    return db.create_table(std::move(def));
}

LoadErrorInfo classify_load_error() {
    try {
        throw;
    } catch (const fault::InjectedFault& e) {
        return {"fault", e.bare_message(), e.where(), true};
    } catch (const ParseError& e) {
        return {"parse", e.bare_message(), e.where(), false};
    } catch (const ValidationError& e) {
        return {"validation", e.bare_message(), e.where(), false};
    } catch (const SchemaError& e) {
        return {"schema", e.bare_message(), e.where(), false};
    } catch (const Error& e) {
        return {"error", e.bare_message(), e.where(), false};
    } catch (const std::exception& e) {
        return {"internal", e.what(), {}, true};
    } catch (...) {
        return {"unknown", "unknown error", {}, true};
    }
}

void quarantine_document(rdb::Database& db, const DocumentOutcome& outcome,
                         std::string raw_text) {
    rdb::Table& q = ensure_quarantine_table(db);
    const rdb::TableDef& def = q.def();
    rdb::Row row(q.column_count());
    row[def.column_index("idx")] =
        Value(static_cast<std::int64_t>(outcome.index));
    row[def.column_index("error_type")] = Value(outcome.error_type);
    row[def.column_index("error_message")] = Value(outcome.error);
    if (outcome.where.valid()) {
        row[def.column_index("line")] =
            Value(static_cast<std::int64_t>(outcome.where.line));
        row[def.column_index("col")] =
            Value(static_cast<std::int64_t>(outcome.where.column));
    }
    row[def.column_index("raw_xml")] = Value(std::move(raw_text));
    q.insert(std::move(row));
}

std::string format_outcome(const DocumentOutcome& outcome) {
    std::string out = "doc " + std::to_string(outcome.index) + " [" +
                      outcome.error_type + "] " + outcome.error;
    if (outcome.where.valid()) out += " at " + outcome.where.to_string();
    return out;
}

Loader::Loader(const dtd::Dtd& logical, const mapping::MappingResult& mapping,
               const rel::RelationalSchema& schema, rdb::Database& db)
    : logical_(logical),
      mapping_(mapping),
      schema_(schema),
      db_(db),
      validator_(logical) {
    build_plans();
}

void Loader::build_plans() {
    id_registry_ = db_.table(rel::kIdRegistryTable);
    text_segments_ = db_.table(rel::kTextSegmentsTable);
    overflow_ = db_.table(rel::kOverflowTable);

    // Reference plans, keyed later through entity plans.
    std::map<std::string, RefPlan*> ref_by_name;  // relationship name → plan
    for (const auto& t : schema_.tables()) {
        if (t.kind != rel::TableKind::kReferenceRel) continue;
        auto plan = std::make_unique<RefPlan>();
        plan->table = &t;
        plan->storage = db_.table(t.name);
        plan->doc_col = col(t, "doc");
        plan->source_col = col(t, "source_pk");
        plan->idref_col = col(t, "idref");
        plan->ord_col = col(t, "ord");
        plan->target_entity_col = col(t, "target_entity");
        plan->target_pk_col = col(t, "target_pk");
        ref_by_name[t.source] = plan.get();
        ref_plans_.push_back(std::move(plan));
    }

    // NESTED plans.
    std::map<std::string, NestedPlan*> nested_by_name;
    for (const auto& t : schema_.tables()) {
        if (t.kind != rel::TableKind::kNestedRel) continue;
        auto plan = std::make_unique<NestedPlan>();
        plan->table = &t;
        plan->storage = db_.table(t.name);
        plan->doc_col = col(t, "doc");
        plan->parent_col = col(t, "parent_pk");
        plan->child_col = col(t, "child_pk");
        plan->ord_col = col(t, "ord");
        nested_by_name[t.source] = plan.get();
        nested_plans_.push_back(std::move(plan));
    }

    // Group plans (one per virtual group element).
    for (const auto& g : mapping_.converted.nested_groups) {
        GroupPlan plan;
        plan.table = schema_.table_for(rel::TableKind::kGroupRel, g.name);
        if (plan.table == nullptr) continue;
        plan.storage = db_.table(plan.table->name);
        plan.pk_col = col(*plan.table, "pk");
        plan.doc_col = col(*plan.table, "doc");
        plan.parent_col = col(*plan.table, "parent_pk");
        plan.ord_col = col(*plan.table, "ord");
        for (const auto& c : plan.table->columns) {
            if (c.role == rel::ColumnRole::kAttribute)
                plan.attr_columns[c.source] = plan.table->column_index(c.name);
            if (c.role == rel::ColumnRole::kForeignKey && c.name != "parent_pk" &&
                !c.source.empty())
                plan.member_columns[c.source] = plan.table->column_index(c.name);
        }
        // Distilled attributes whose owner is the virtual group element.
        const std::string virtual_name = g.name.substr(1);  // strip 'N'
        for (const auto& d : mapping_.metadata.distilled) {
            if (d.element != virtual_name) continue;
            auto it = plan.attr_columns.find(d.attribute);
            if (it != plan.attr_columns.end())
                plan.distilled_columns[d.original_child] = it->second;
        }
        // Link tables for repeatable members.
        for (const auto& t : schema_.tables()) {
            if (t.kind != rel::TableKind::kGroupMemberLink || t.source != g.name)
                continue;
            GroupPlan::Link link;
            link.table = &t;
            link.storage = db_.table(t.name);
            link.doc_col = col(t, "doc");
            link.group_col = col(t, "group_pk");
            link.member_col = col(t, "member_pk");
            link.ord_col = col(t, "ord");
            plan.link_tables[t.source2] = link;
        }
        group_plans_[virtual_name] = std::move(plan);
    }

    // Entity plans.
    for (const auto& ce : mapping_.converted.elements) {
        EntityPlan plan;
        plan.entity = ce.name;
        plan.table = schema_.entity_table(ce.name);
        if (plan.table == nullptr) continue;
        plan.storage = db_.table(plan.table->name);
        plan.pk_col = col(*plan.table, "pk");
        plan.doc_col = col(*plan.table, "doc");
        plan.pcdata_col = col(*plan.table, "pcdata");
        plan.raw_col = col(*plan.table, "raw_xml");
        plan.pre_col = col(*plan.table, "pre");
        plan.post_col = col(*plan.table, "post");
        plan.level_col = col(*plan.table, "level");

        for (const auto& c : plan.table->columns) {
            if (c.role == rel::ColumnRole::kAttribute)
                plan.attr_columns[c.source] = plan.table->column_index(c.name);
        }
        for (const auto& d : mapping_.metadata.distilled) {
            if (d.element != ce.name) continue;
            auto it = plan.attr_columns.find(d.attribute);
            if (it != plan.attr_columns.end())
                plan.distilled_columns[d.original_child] = it->second;
        }

        // ID / IDREF attributes come from the *original* declaration.
        if (const dtd::ElementDecl* decl = logical_.element(ce.name)) {
            if (const dtd::AttributeDecl* id = decl->id_attribute())
                plan.id_attr = id->name;
            const rel::TableSchema* entity_table = plan.table;
            for (const auto* idref : decl->idref_attributes()) {
                // REFERENCE relationships are named after the attribute,
                // qualified with the source when two elements share an
                // attribute name — so verify the candidate table actually
                // references *this* entity before adopting it.
                RefPlan* match = nullptr;
                for (const std::string& cand :
                     {idref->name + "_" + ce.name, idref->name}) {
                    auto it = ref_by_name.find(cand);
                    if (it == ref_by_name.end()) continue;
                    const rel::Column* sc = it->second->table->column("source_pk");
                    if (sc != nullptr && sc->references == entity_table->name) {
                        match = it->second;
                        break;
                    }
                }
                if (match != nullptr)
                    plan.idref_attrs.emplace_back(idref->name, match);
            }
        }

        switch (ce.residual) {
            case mapping::ResidualContent::kEmpty:
                plan.mode = EntityPlan::Mode::kEmpty;
                break;
            case mapping::ResidualContent::kAny:
                plan.mode = EntityPlan::Mode::kAny;
                break;
            case mapping::ResidualContent::kPCData:
                plan.mode = EntityPlan::Mode::kPCData;
                break;
            case mapping::ResidualContent::kMixed:
                plan.mode = EntityPlan::Mode::kMixed;
                break;
            case mapping::ResidualContent::kStripped:
                plan.mode = EntityPlan::Mode::kChildren;
                break;
        }

        // Content matcher from the grouped (step-1) DTD, which still lists
        // distilled children and marks hoisted groups.
        if (plan.mode == EntityPlan::Mode::kChildren) {
            const dtd::ElementDecl* grouped_decl = mapping_.grouped.element(ce.name);
            if (grouped_decl != nullptr)
                plan.plan = build_plan(mapping_.grouped, mapping_.metadata,
                                       *grouped_decl);
        }

        // Direct NESTED relationships out of this element (incl. mixed).
        for (const auto& n : mapping_.converted.nested) {
            if (n.parent != ce.name) continue;
            auto it = nested_by_name.find(n.name);
            if (it != nested_by_name.end()) plan.nested[n.child] = it->second;
        }

        entity_plans_[ce.name] = std::move(plan);
    }
}

Watermark next_watermark(const rdb::Database& db) {
    Watermark next;
    const rdb::Table* docs = db.table("xrel_docs");
    if (docs == nullptr) return next;
    const rdb::TableDef& def = docs->def();
    int d = def.column_index("doc");
    int b = def.column_index("label_base");
    int s = def.column_index("label_span");
    for (rdb::RowId id = 0; id < docs->row_count(); ++id) {
        if (d >= 0) {
            const Value& doc = docs->cell(id, static_cast<std::size_t>(d));
            if (!doc.is_null())
                next.doc = std::max(next.doc, doc.as_integer() + 1);
        }
        if (b >= 0 && s >= 0) {
            const Value& base = docs->cell(id, static_cast<std::size_t>(b));
            const Value& span = docs->cell(id, static_cast<std::size_t>(s));
            if (!base.is_null() && !span.is_null())
                next.label = std::max(next.label,
                                      base.as_integer() + span.as_integer());
        }
    }
    return next;
}

std::int64_t Loader::load(xml::Document& doc, const LoadOptions& options) {
    DirectSink sink;
    LoadStats doc_stats;
    Watermark next = next_watermark(db_);
    std::int64_t doc_id = std::max(next.doc, last_doc_ + 1);
    db_.begin_unit();
    try {
        shred_document(doc, doc_id, options, sink, doc_stats, next.label);
        if (options.resolve_references) resolve_references(doc_stats);
        db_.commit_unit();
        last_doc_ = doc_id;
        // Lifetime stats absorb the document only once it committed;
        // unresolved_references stays a snapshot of the latest pass.
        std::size_t unresolved = doc_stats.unresolved_references;
        stats_.merge(doc_stats);
        if (options.resolve_references)
            stats_.unresolved_references = unresolved;
        return doc_id;
    } catch (...) {
        db_.rollback_unit();
        throw;
    }
}

std::int64_t Loader::shred_document(xml::Document& doc, std::int64_t doc_id,
                                    const LoadOptions& options, RowSink& sink,
                                    LoadStats& stats,
                                    std::int64_t label_base) const {
    if (options.validate) {
        validate::ValidateOptions vopt;
        vopt.apply_defaults = true;
        vopt.strict = options.strict;
        validator_.check(doc, vopt);
    }
    if (doc.root() == nullptr)
        throw ValidationError("cannot load a document without a root element");

    std::int64_t label = label_base;
    std::int64_t root_pk =
        load_element(*doc.root(), doc_id, options, sink, stats, label, 0);
    stats.label_span = label - label_base;
    if (rdb::Table* docs = db_.table("xrel_docs")) {
        sink.append(*docs, {Value::null(), Value(doc_id),
                            Value(doc.root()->name()), Value(root_pk),
                            Value(label_base), Value(stats.label_span)});
    }
    ++stats.documents;
    return doc_id;
}

std::int64_t Loader::load_element(const xml::Element& e, std::int64_t doc,
                                  const LoadOptions& options, RowSink& sink,
                                  LoadStats& stats, std::int64_t& label,
                                  std::int64_t level) const {
    fault::maybe_fail("loader.shred");
    ++stats.elements_visited;
    auto plan_it = entity_plans_.find(e.name());
    if (plan_it == entity_plans_.end()) {
        if (options.strict)
            throw ValidationError("no relational mapping for element '" +
                                      e.name() + "'",
                                  e.location());
        ++stats.skipped_elements;
        return -1;
    }
    const EntityPlan& plan = plan_it->second;

    rdb::Row row = null_row(*plan.table);
    if (plan.doc_col >= 0) row[plan.doc_col] = Value(doc);
    // Dietz interval label: pre ticks at entry, post after the children
    // (below), so descendant(d, a) ⇔ a.pre < d.pre < a.post.
    if (plan.pre_col >= 0) row[plan.pre_col] = Value(label++);
    if (plan.level_col >= 0) row[plan.level_col] = Value(level);
    for (const auto& attr : e.attributes()) {
        auto it = plan.attr_columns.find(attr.name);
        if (it != plan.attr_columns.end()) row[it->second] = Value(attr.value);
    }
    switch (plan.mode) {
        case EntityPlan::Mode::kPCData:
        case EntityPlan::Mode::kMixed:
            if (plan.pcdata_col >= 0) row[plan.pcdata_col] = Value(e.text());
            break;
        case EntityPlan::Mode::kAny:
            if (plan.raw_col >= 0) {
                std::string raw;
                xml::SerializeOptions sopt;
                sopt.indent.clear();
                for (const auto& child : e.children())
                    raw += xml::serialize(*child, sopt);
                row[plan.raw_col] = Value(std::move(raw));
            }
            break;
        case EntityPlan::Mode::kChildren:
        case EntityPlan::Mode::kEmpty:
            break;
    }

    // Keys are allocated before insertion so child rows (and the ID
    // registry) can reference this row while it is still being assembled —
    // distilled #PCDATA children fill their columns only once the content
    // events are processed.
    std::int64_t pk = sink.allocate_pk(*plan.storage);
    if (plan.pk_col >= 0) row[plan.pk_col] = Value(pk);

    // ID registry.
    if (!plan.id_attr.empty() && id_registry_ != nullptr) {
        if (const std::string* idval = e.attribute(plan.id_attr)) {
            const rel::TableSchema& rt = *schema_.table(rel::kIdRegistryTable);
            rdb::Row reg = null_row(rt);
            int c;
            if ((c = col(rt, "doc")) >= 0) reg[c] = Value(doc);
            reg[col(rt, "idval")] = Value(normalize_space(*idval));
            reg[col(rt, "entity")] = Value(plan.entity);
            reg[col(rt, "entity_pk")] = Value(pk);
            sink.append(*id_registry_, std::move(reg));
        }
    }

    // IDREF rows (targets resolved later).
    for (const auto& [attr_name, ref] : plan.idref_attrs) {
        const std::string* value = e.attribute(attr_name);
        if (value == nullptr) continue;
        std::vector<std::string> tokens = split_name_tokens(*value);
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            rdb::Row rrow = null_row(*ref->table);
            if (ref->doc_col >= 0) rrow[ref->doc_col] = Value(doc);
            rrow[ref->source_col] = Value(pk);
            rrow[ref->idref_col] = Value(std::move(tokens[i]));
            if (ref->ord_col >= 0)
                rrow[ref->ord_col] = Value(static_cast<std::int64_t>(i));
            sink.append(*ref->storage, std::move(rrow));
            ++stats.reference_rows;
        }
    }

    // Structure.
    switch (plan.mode) {
        case EntityPlan::Mode::kChildren:
            load_children(e, plan, row, pk, doc, options, sink, stats, label,
                          level);
            break;
        case EntityPlan::Mode::kMixed: {
            // Element members of mixed content become NESTED rows and text
            // nodes become xrel_text segment rows, both with the node index
            // as ord — so interleaving reconstructs exactly.
            const auto& children = e.children();
            for (std::size_t i = 0; i < children.size(); ++i) {
                if (children[i]->is_text() && text_segments_ != nullptr) {
                    const auto& text =
                        static_cast<const xml::Text&>(*children[i]);
                    rdb::Row trow(text_segments_->column_count());
                    const rdb::TableDef& td = text_segments_->def();
                    int c;
                    if ((c = td.column_index("doc")) >= 0) trow[c] = Value(doc);
                    trow[td.column_index("entity")] = Value(plan.entity);
                    trow[td.column_index("parent_pk")] = Value(pk);
                    if ((c = td.column_index("ord")) >= 0)
                        trow[c] = Value(static_cast<std::int64_t>(i));
                    trow[td.column_index("content")] = Value(text.content());
                    sink.append(*text_segments_, std::move(trow));
                    ++stats.relationship_rows;
                    continue;
                }
                if (!children[i]->is_element()) continue;
                const auto& child = static_cast<const xml::Element&>(*children[i]);
                auto it = plan.nested.find(child.name());
                if (it == plan.nested.end()) {
                    if (options.strict)
                        throw ValidationError(
                            "element '" + child.name() +
                                "' not allowed in mixed content of '" + e.name() +
                                "'",
                            child.location());
                    store_overflow(child, plan.entity, pk, doc, i, sink, stats);
                    continue;
                }
                std::int64_t cpk = load_element(child, doc, options, sink,
                                                stats, label, level + 1);
                if (cpk < 0) continue;
                const NestedPlan& np = *it->second;
                rdb::Row nrow = null_row(*np.table);
                if (np.doc_col >= 0) nrow[np.doc_col] = Value(doc);
                nrow[np.parent_col] = Value(pk);
                nrow[np.child_col] = Value(cpk);
                if (np.ord_col >= 0)
                    nrow[np.ord_col] = Value(static_cast<std::int64_t>(i));
                sink.append(*np.storage, std::move(nrow));
                ++stats.relationship_rows;
            }
            break;
        }
        default:
            break;
    }

    if (plan.post_col >= 0) row[plan.post_col] = Value(label++);
    sink.append(*plan.storage, std::move(row));
    ++stats.entity_rows;
    return pk;
}

void Loader::load_children(const xml::Element& e, const EntityPlan& plan,
                           rdb::Row& parent_row, std::int64_t parent_pk,
                           std::int64_t doc, const LoadOptions& options,
                           RowSink& sink, LoadStats& stats,
                           std::int64_t& label, std::int64_t level) const {
    std::vector<xml::Element*> children = e.child_elements();
    std::vector<std::string_view> names;
    names.reserve(children.size());
    for (const auto* c : children) names.emplace_back(c->name());

    std::vector<MatchEvent> events;
    if (!match_children(plan.plan, names, events)) {
        if (options.strict)
            throw ValidationError("children of '" + e.name() +
                                      "' do not match the content model",
                                  e.location());
        // Lenient fallback: link whatever children have NESTED tables; the
        // rest go to the overflow table (STORED-style) rather than vanish.
        for (std::size_t i = 0; i < children.size(); ++i) {
            auto it = plan.nested.find(children[i]->name());
            if (it == plan.nested.end()) {
                store_overflow(*children[i], plan.entity, parent_pk, doc, i,
                               sink, stats);
                continue;
            }
            std::int64_t cpk = load_element(*children[i], doc, options, sink,
                                            stats, label, level + 1);
            if (cpk < 0) continue;
            const NestedPlan& np = *it->second;
            rdb::Row nrow = null_row(*np.table);
            if (np.doc_col >= 0) nrow[np.doc_col] = Value(doc);
            nrow[np.parent_col] = Value(parent_pk);
            nrow[np.child_col] = Value(cpk);
            if (np.ord_col >= 0)
                nrow[np.ord_col] = Value(static_cast<std::int64_t>(i));
            sink.append(*np.storage, std::move(nrow));
            ++stats.relationship_rows;
        }
        return;
    }

    // Context stack: the entity frame at the bottom, one frame per open
    // group instance above it.  Group rows stay buffered until ExitGroup so
    // distilled/member columns can be filled before constraint checking.
    struct Context {
        bool is_group = false;
        const GroupPlan* group = nullptr;
        std::int64_t pk = 0;
        rdb::Row* row = nullptr;  ///< entity frame: caller's row
        rdb::Row group_row;       ///< group frame: buffered here
    };
    std::vector<Context> stack;
    stack.reserve(8);
    {
        Context root;
        root.pk = parent_pk;
        root.row = &parent_row;
        stack.push_back(std::move(root));
    }
    auto current_row = [&]() -> rdb::Row& {
        Context& ctx = stack.back();
        return ctx.is_group ? ctx.group_row : *ctx.row;
    };

    for (const auto& event : events) {
        switch (event.type) {
            case MatchEvent::Type::kEnterGroup: {
                auto git = group_plans_.find(event.node->name);
                if (git == group_plans_.end() || git->second.storage == nullptr) {
                    // Group without a table (e.g. empty body): keep parent
                    // context so members attach one level up.
                    Context copy;
                    copy.is_group = stack.back().is_group;
                    copy.group = stack.back().group;
                    copy.pk = stack.back().pk;
                    copy.row = stack.back().row;
                    if (copy.is_group) {
                        // Degenerate; share the parent's buffer by pointer.
                        copy.is_group = false;
                        copy.row = &current_row();
                    }
                    stack.push_back(std::move(copy));
                    break;
                }
                const GroupPlan& gp = git->second;
                Context ctx;
                ctx.is_group = true;
                ctx.group = &gp;
                ctx.pk = sink.allocate_pk(*gp.storage);
                ctx.group_row = null_row(*gp.table);
                if (gp.pk_col >= 0) ctx.group_row[gp.pk_col] = Value(ctx.pk);
                if (gp.doc_col >= 0) ctx.group_row[gp.doc_col] = Value(doc);
                ctx.group_row[gp.parent_col] = Value(stack.back().pk);
                if (gp.ord_col >= 0)
                    ctx.group_row[gp.ord_col] =
                        Value(static_cast<std::int64_t>(event.pos));
                stack.push_back(std::move(ctx));
                break;
            }
            case MatchEvent::Type::kExitGroup: {
                Context done = std::move(stack.back());
                stack.pop_back();
                if (done.is_group) {
                    sink.append(*done.group->storage,
                                std::move(done.group_row));
                    ++stats.relationship_rows;
                }
                break;
            }
            case MatchEvent::Type::kMatchChild: {
                const xml::Element& child = *children[event.pos];
                Context& ctx = stack.back();

                // Distilled #PCDATA subelement -> column on the owner row.
                const std::map<std::string, int>& distilled =
                    ctx.is_group ? ctx.group->distilled_columns
                                 : plan.distilled_columns;
                auto dit = distilled.find(child.name());
                if (dit != distilled.end()) {
                    current_row()[dit->second] = Value(child.text());
                    break;
                }

                std::int64_t cpk = load_element(child, doc, options, sink,
                                                stats, label, level + 1);
                if (cpk < 0) break;

                if (ctx.is_group) {
                    auto lit = ctx.group->link_tables.find(child.name());
                    if (lit != ctx.group->link_tables.end()) {
                        const GroupPlan::Link& link = lit->second;
                        rdb::Row lrow = null_row(*link.table);
                        if (link.doc_col >= 0) lrow[link.doc_col] = Value(doc);
                        lrow[link.group_col] = Value(ctx.pk);
                        lrow[link.member_col] = Value(cpk);
                        if (link.ord_col >= 0)
                            lrow[link.ord_col] =
                                Value(static_cast<std::int64_t>(event.pos));
                        sink.append(*link.storage, std::move(lrow));
                        ++stats.relationship_rows;
                    } else {
                        auto mit = ctx.group->member_columns.find(child.name());
                        if (mit != ctx.group->member_columns.end())
                            current_row()[mit->second] = Value(cpk);
                    }
                } else {
                    auto nit = plan.nested.find(child.name());
                    if (nit != plan.nested.end()) {
                        const NestedPlan& np = *nit->second;
                        rdb::Row nrow = null_row(*np.table);
                        if (np.doc_col >= 0) nrow[np.doc_col] = Value(doc);
                        nrow[np.parent_col] = Value(ctx.pk);
                        nrow[np.child_col] = Value(cpk);
                        if (np.ord_col >= 0)
                            nrow[np.ord_col] =
                                Value(static_cast<std::int64_t>(event.pos));
                        sink.append(*np.storage, std::move(nrow));
                        ++stats.relationship_rows;
                    }
                }
                break;
            }
        }
    }
}

void Loader::store_overflow(const xml::Element& e,
                            const std::string& parent_entity,
                            std::int64_t parent_pk, std::int64_t doc,
                            std::size_t ord, RowSink& sink,
                            LoadStats& stats) const {
    ++stats.skipped_elements;
    if (overflow_ == nullptr) return;
    xml::SerializeOptions compact;
    compact.indent.clear();
    compact.declaration = false;
    compact.doctype = false;
    const rdb::TableDef& td = overflow_->def();
    rdb::Row row(overflow_->column_count());
    int c;
    if ((c = td.column_index("doc")) >= 0) row[c] = Value(doc);
    row[td.column_index("parent_entity")] = Value(parent_entity);
    row[td.column_index("parent_pk")] = Value(parent_pk);
    if ((c = td.column_index("ord")) >= 0)
        row[c] = Value(static_cast<std::int64_t>(ord));
    row[td.column_index("raw_xml")] = Value(xml::serialize(e, compact));
    sink.append(*overflow_, std::move(row));
    ++stats.overflow_rows;
}

std::size_t Loader::unload(std::int64_t doc) {
    rdb::Table* docs = db_.table("xrel_docs");
    if (docs == nullptr)
        throw SchemaError("cannot unload: xrel_docs metadata table is missing");
    if (docs->lookup("doc", Value(doc)).empty())
        throw SchemaError("no loaded document with id " + std::to_string(doc));

    std::size_t removed = 0;
    for (const auto& t : schema_.tables()) {
        if (t.kind == rel::TableKind::kMetadata) continue;
        rdb::Table* storage = db_.table(t.name);
        if (storage == nullptr || t.column("doc") == nullptr) continue;
        removed += storage->delete_where("doc", Value(doc));
    }
    docs->delete_where("doc", Value(doc));
    --stats_.documents;
    return removed;
}

void Loader::resolve_references() { resolve_references(stats_); }

void Loader::resolve_references(LoadStats& stats) {
    // Unresolved is a snapshot of the current pass (rows already resolved
    // earlier are skipped and never recounted).
    stats.unresolved_references = 0;
    for (auto& ref : ref_plans_) resolve_references_in(*ref, stats);
}

void Loader::resolve_references_in(RefPlan& ref, LoadStats& stats) {
    if (ref.storage == nullptr || id_registry_ == nullptr) return;
    const rel::TableSchema& rt = *schema_.table(rel::kIdRegistryTable);
    int reg_doc = col(rt, "doc");
    int reg_entity = col(rt, "entity");
    int reg_pk = col(rt, "entity_pk");

    for (rdb::RowId id = 0; id < ref.storage->row_count(); ++id) {
        rdb::RowView row = ref.storage->row(id);
        if (!row[ref.target_pk_col].is_null()) continue;
        fault::maybe_fail("loader.resolve");

        const Value& idref = row[ref.idref_col];
        std::vector<rdb::RowId> hits = id_registry_->lookup("idval", idref);
        bool resolved = false;
        for (rdb::RowId hit : hits) {
            rdb::RowView reg = id_registry_->row(hit);
            // IDs are unique per document, so match the document too.
            if (ref.doc_col >= 0 && reg_doc >= 0 &&
                !(reg[reg_doc] == row[ref.doc_col]))
                continue;
            ref.storage->update(id, "target_entity", reg[reg_entity]);
            ref.storage->update(id, "target_pk", reg[reg_pk]);
            resolved = true;
            break;
        }
        if (resolved) ++stats.resolved_references;
        else ++stats.unresolved_references;
    }
}

}  // namespace xr::loader
