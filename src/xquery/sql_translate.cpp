#include "xquery/sql_translate.hpp"

#include <deque>
#include <set>

#include "common/strings.hpp"

namespace xr::xquery {

SqlTranslator::SqlTranslator(const mapping::MappingResult& mapping,
                             const rel::RelationalSchema& schema)
    : mapping_(mapping), schema_(schema) {
    // Node tables.
    for (const auto& e : mapping_.converted.elements)
        node_tables_[e.name] = schema_.entity_table(e.name);
    for (const auto& g : mapping_.converted.nested_groups)
        node_tables_[g.name] = schema_.table_for(rel::TableKind::kGroupRel, g.name);

    // NESTED edges.
    for (const auto& n : mapping_.converted.nested) {
        const rel::TableSchema* rel_table =
            schema_.table_for(rel::TableKind::kNestedRel, n.name);
        const rel::TableSchema* target = schema_.entity_table(n.child);
        if (rel_table == nullptr || target == nullptr) continue;
        edges_[n.parent].push_back(
            {Hop::Kind::kNested, n.child, rel_table, "", target});
    }

    // NESTED_GROUP edges: parent → group node, group node → members.
    for (const auto& g : mapping_.converted.nested_groups) {
        const rel::TableSchema* group_table =
            schema_.table_for(rel::TableKind::kGroupRel, g.name);
        if (group_table == nullptr) continue;
        edges_[g.parent].push_back(
            {Hop::Kind::kGroup, g.name, group_table, "", nullptr});
        for (const auto& m : g.group.children) {
            if (!m.is_element() || g.is_virtual_member(m.name)) continue;
            const rel::TableSchema* target = schema_.entity_table(m.name);
            if (target == nullptr) continue;
            if (const rel::TableSchema* link = schema_.link_table(g.name, m.name)) {
                edges_[g.name].push_back(
                    {Hop::Kind::kMemberLink, m.name, link, "", target});
            } else if (const rel::Column* c = group_table->column_by_source(m.name)) {
                edges_[g.name].push_back(
                    {Hop::Kind::kMemberColumn, m.name, group_table, c->name,
                     target});
            }
        }
    }

    // REFERENCE tables: IDREF attributes were extracted from entities, so
    // @attr access on them joins the reference table instead.
    for (const auto& r : mapping_.converted.references) {
        const rel::TableSchema* entity = schema_.entity_table(r.source);
        if (entity == nullptr) continue;
        for (const std::string& cand :
             {r.attribute + "_" + r.source, r.attribute}) {
            const rel::TableSchema* t =
                schema_.table_for(rel::TableKind::kReferenceRel, cand);
            if (t == nullptr) continue;
            const rel::Column* sc = t->column("source_pk");
            if (sc != nullptr && sc->references == entity->name) {
                ref_tables_[{r.source, r.attribute}] = t;
                break;
            }
        }
    }

    // Distilled value columns per owner node.
    for (const auto& d : mapping_.metadata.distilled) {
        std::string node = d.element;
        const rel::TableSchema* table = nullptr;
        if (mapping_.metadata.group(node) != nullptr) {
            node = "N" + node;  // virtual element → its relationship node
            table = schema_.table_for(rel::TableKind::kGroupRel, node);
        } else {
            table = schema_.entity_table(node);
        }
        if (table == nullptr) continue;
        if (const rel::Column* c = table->column_by_source(d.attribute))
            distilled_[node][d.original_child] = c->name;
    }
}

std::vector<const SqlTranslator::Hop*> SqlTranslator::find_path(
    const std::string& from, const std::string& to) const {
    // BFS over edges; only group nodes may be intermediate (an element step
    // never passes through another element).
    struct State {
        std::string node;
        std::vector<const Hop*> path;
    };
    std::deque<State> queue;
    std::set<std::string> visited{from};
    queue.push_back({from, {}});
    while (!queue.empty()) {
        State state = std::move(queue.front());
        queue.pop_front();
        auto it = edges_.find(state.node);
        if (it == edges_.end()) continue;
        for (const Hop& hop : it->second) {
            if (hop.to == to && hop.kind != Hop::Kind::kGroup) {
                std::vector<const Hop*> path = state.path;
                path.push_back(&hop);
                return path;
            }
            if (hop.kind == Hop::Kind::kGroup && visited.insert(hop.to).second) {
                State next = state;
                next.node = hop.to;
                next.path.push_back(&hop);
                queue.push_back(std::move(next));
            }
        }
    }
    return {};
}

namespace {

/// Builder for the FROM/JOIN/WHERE clauses.
struct SqlBuilder {
    std::string from;
    std::vector<std::string> joins;
    std::vector<std::string> where;
    std::string group_by;
    std::string having;
    int alias_counter = 0;

    std::string alias() { return "t" + std::to_string(alias_counter++); }

    [[nodiscard]] std::string render(const std::string& select) const {
        std::string sql = "SELECT " + select + " FROM " + from;
        for (const auto& j : joins) sql += " " + j;
        for (std::size_t i = 0; i < where.size(); ++i)
            sql += (i == 0 ? " WHERE " : " AND ") + where[i];
        if (!group_by.empty()) sql += " GROUP BY " + group_by;
        if (!having.empty()) sql += " HAVING " + having;
        return sql;
    }
};

struct NodeCtx {
    std::string node;   ///< entity or group-relationship name
    std::string alias;  ///< SQL alias of its table
    const rel::TableSchema* table = nullptr;
    /// How this step was reached: the NESTED relationship table + alias
    /// (positional predicates count ord-predecessors over it).
    std::string via_nested_table;
    std::string via_nested_alias;
};

}  // namespace

Translation SqlTranslator::translate(const PathQuery& query) const {
    if (query.steps.empty()) throw QueryError("empty path query");
    const Step& root_step = query.steps.front();
    if (root_step.attribute || root_step.text_fn)
        throw QueryError("the root step must be an element");
    for (const auto& step : query.steps) {
        if (step.name == "*")
            throw QueryError(
                "the '*' wildcard step has no SQL translation in this "
                "dialect (it would need a UNION over every child table)");
        if (step.descendant && (step.attribute || step.text_fn))
            throw QueryError(
                "the descendant axis ('//') is only translatable for "
                "element steps");
    }

    SqlBuilder sql;
    bool interval_plan = false;
    std::string plan_notes;
    auto note = [&](const std::string& clause) {
        if (!plan_notes.empty()) plan_notes += "; ";
        plan_notes += clause;
    };

    auto node_table = [&](const std::string& node) -> const rel::TableSchema* {
        auto it = node_tables_.find(node);
        if (it == node_tables_.end() || it->second == nullptr)
            throw QueryError("no relational mapping for '" + node + "'");
        return it->second;
    };

    // Structural-label plumbing (DESIGN.md §10).  Interval plans need the
    // (pre, post) label columns on both ends of the containment join, and
    // they count *rows*, so a target that was distilled anywhere in the
    // mapping (its instances became parent columns, not rows) would
    // silently under-count — reject it instead.
    auto has_labels = [](const rel::TableSchema* t) {
        const rel::Column* c = t->column("pre");
        return c != nullptr && c->role == rel::ColumnRole::kLabel &&
               t->column("post") != nullptr;
    };
    auto entity_target = [&](const std::string& name) -> const rel::TableSchema* {
        const rel::TableSchema* t = node_table(name);
        if (t->kind != rel::TableKind::kEntity)
            throw QueryError("'" + name + "' does not map to an entity table");
        for (const auto& d : mapping_.metadata.distilled)
            if (d.original_child == name)
                throw QueryError(
                    "'" + name + "' was distilled into a parent column "
                    "somewhere in the mapping; structural plans need "
                    "element rows");
        if (!has_labels(t))
            throw QueryError(
                "'" + name + "' carries no structural (pre, post) labels");
        return t;
    };

    // Navigate one element step from `ctx`, appending joins.
    auto emit_hops = [&](const NodeCtx& ctx,
                         const std::vector<const Hop*>& path) -> NodeCtx {
        NodeCtx current = ctx;
        for (const Hop* hop : path) {
            switch (hop->kind) {
                case Hop::Kind::kNested: {
                    std::string r = sql.alias();
                    sql.joins.push_back("JOIN " + hop->rel_table->name + " " + r +
                                        " ON " + r + ".parent_pk = " +
                                        current.alias + ".pk");
                    std::string c = sql.alias();
                    sql.joins.push_back("JOIN " + hop->target_table->name + " " +
                                        c + " ON " + c + ".pk = " + r +
                                        ".child_pk");
                    current = {hop->to, c, hop->target_table,
                               hop->rel_table->name, r};
                    break;
                }
                case Hop::Kind::kGroup: {
                    std::string g = sql.alias();
                    sql.joins.push_back("JOIN " + hop->rel_table->name + " " + g +
                                        " ON " + g + ".parent_pk = " +
                                        current.alias + ".pk");
                    current = {hop->to, g, hop->rel_table, "", ""};
                    break;
                }
                case Hop::Kind::kMemberColumn: {
                    std::string m = sql.alias();
                    sql.joins.push_back("JOIN " + hop->target_table->name + " " +
                                        m + " ON " + m + ".pk = " + current.alias +
                                        "." + hop->member_column);
                    current = {hop->to, m, hop->target_table, "", ""};
                    break;
                }
                case Hop::Kind::kMemberLink: {
                    std::string l = sql.alias();
                    sql.joins.push_back("JOIN " + hop->rel_table->name + " " + l +
                                        " ON " + l + ".group_pk = " +
                                        current.alias + ".pk");
                    std::string m = sql.alias();
                    sql.joins.push_back("JOIN " + hop->target_table->name + " " +
                                        m + " ON " + m + ".pk = " + l +
                                        ".member_pk");
                    current = {hop->to, m, hop->target_table, "", ""};
                    break;
                }
            }
        }
        return current;
    };

    auto navigate = [&](const NodeCtx& ctx,
                        const std::string& child) -> NodeCtx {
        std::vector<const Hop*> path = find_path(ctx.node, child);
        if (path.empty())
            throw QueryError("no relationship path from '" + ctx.node + "' to '" +
                             child + "'");
        return emit_hops(ctx, path);
    };

    // Navigate a descendant ('//') step from `ctx`: one interval
    // containment join — strict pre-enclosure, valid across documents
    // because per-document label ranges are disjoint.
    auto navigate_descendant = [&](const NodeCtx& ctx,
                                   const std::string& name) -> NodeCtx {
        const rel::TableSchema* target = entity_target(name);
        if (!has_labels(ctx.table))
            throw QueryError("'" + ctx.node + "' carries no structural (pre, "
                             "post) labels ('//' needs an entity context)");
        std::string d = sql.alias();
        sql.joins.push_back("JOIN " + target->name + " " + d + " ON " + d +
                            ".pre > " + ctx.alias + ".pre AND " + d +
                            ".pre < " + ctx.alias + ".post");
        interval_plan = true;
        note("//" + name + ": interval containment join");
        return {name, d, target, "", ""};
    };

    // Attribute access on an entity context: a plain column, or — for an
    // IDREF attribute turned REFERENCE — a join against the reference table.
    auto attribute_expr = [&](const NodeCtx& ctx,
                              const std::string& attr) -> std::string {
        if (const rel::Column* c = ctx.table->column_by_source(attr))
            return ctx.alias + "." + c->name;
        auto rit = ref_tables_.find({ctx.node, attr});
        if (rit != ref_tables_.end()) {
            std::string r = sql.alias();
            sql.joins.push_back("JOIN " + rit->second->name + " " + r + " ON " +
                                r + ".source_pk = " + ctx.alias + ".pk");
            return r + ".idref";
        }
        throw QueryError("no attribute '" + attr + "' on '" + ctx.node + "'");
    };

    // Value expression of a relative path from `ctx` (for predicates and
    // final extraction); navigates as needed.
    auto value_expr = [&](NodeCtx ctx, const RelPath& path) -> std::string {
        // Walk all but the last element.
        std::size_t n = path.elements.size();
        std::size_t walk = n;
        bool need_value_from_last_element =
            path.attribute.empty() && !path.text && n > 0;
        if ((path.attribute.empty() && path.text) || !path.attribute.empty()) {
            // trailing @attr or text(): walk every element first.
            walk = n;
        } else if (need_value_from_last_element) {
            walk = n - 1;  // last element may be a distilled column
        }
        for (std::size_t i = 0; i < walk; ++i)
            ctx = navigate(ctx, path.elements[i]);

        if (!path.attribute.empty()) return attribute_expr(ctx, path.attribute);
        if (path.text) {
            const rel::Column* c =
                ctx.table->column_by_role(rel::ColumnRole::kText);
            if (c == nullptr)
                throw QueryError("'" + ctx.node + "' has no text content column");
            return ctx.alias + "." + c->name;
        }
        // Bare element path: distilled column on the owner, or the element
        // entity's text column.
        const std::string& last = path.elements.back();
        auto dit = distilled_.find(ctx.node);
        if (dit != distilled_.end()) {
            auto cit = dit->second.find(last);
            if (cit != dit->second.end()) return ctx.alias + "." + cit->second;
        }
        NodeCtx final_ctx = navigate(ctx, last);
        const rel::Column* c =
            final_ctx.table->column_by_role(rel::ColumnRole::kText);
        if (c == nullptr)
            throw QueryError("element '" + last +
                             "' carries no comparable value in the mapping");
        return final_ctx.alias + "." + c->name;
    };

    auto apply_predicates = [&](const NodeCtx& ctx, const Step& step) {
        for (const auto& pred : step.predicates) {
            switch (pred.kind) {
                case Predicate::Kind::kPosition: {
                    // The paper's ord columns make sibling positions
                    // relational: the n-th same-name child is the row with
                    // exactly n ord-predecessors under the same parent.
                    // Supported when the step arrived over a NESTED
                    // relationship table that carries an ord column.
                    if (ctx.via_nested_table.empty())
                        throw QueryError(
                            "positional predicate not translatable on '" +
                            ctx.node + "' (step is not a direct NESTED "
                            "relationship)");
                    if (!sql.group_by.empty())
                        throw QueryError(
                            "only one positional predicate per query is "
                            "translatable");
                    const rel::TableSchema* rel_table =
                        schema_.table(ctx.via_nested_table);
                    if (rel_table == nullptr ||
                        rel_table->column("ord") == nullptr)
                        throw QueryError(
                            "positional predicate needs ord columns "
                            "(ordinal_columns was disabled)");
                    std::string r2 = sql.alias();
                    sql.joins.push_back(
                        "JOIN " + ctx.via_nested_table + " " + r2 + " ON " +
                        r2 + ".parent_pk = " + ctx.via_nested_alias +
                        ".parent_pk AND " + r2 + ".ord <= " +
                        ctx.via_nested_alias + ".ord");
                    sql.group_by = ctx.alias + ".pk";
                    sql.having =
                        "COUNT(*) = " + std::to_string(pred.position);
                    break;
                }
                case Predicate::Kind::kExists: {
                    if (!pred.path.attribute.empty() &&
                        pred.path.elements.empty()) {
                        sql.where.push_back(attribute_expr(ctx, pred.path.attribute) +
                                            " IS NOT NULL");
                    } else if (pred.path.attribute.empty() && !pred.path.text &&
                               !pred.path.elements.empty()) {
                        // Bare element existence: inner joins are enough —
                        // unless the final element was distilled into a
                        // column, which exists iff non-NULL.
                        NodeCtx c = ctx;
                        for (std::size_t i = 0; i + 1 < pred.path.elements.size();
                             ++i)
                            c = navigate(c, pred.path.elements[i]);
                        const std::string& last = pred.path.elements.back();
                        auto dit = distilled_.find(c.node);
                        auto cit = dit != distilled_.end()
                                       ? dit->second.find(last)
                                       : decltype(dit->second.begin())();
                        if (dit != distilled_.end() &&
                            cit != dit->second.end()) {
                            sql.where.push_back(c.alias + "." + cit->second +
                                                " IS NOT NULL");
                        } else {
                            navigate(c, last);
                        }
                    } else {
                        std::string expr = value_expr(ctx, pred.path);
                        sql.where.push_back(expr + " IS NOT NULL");
                    }
                    break;
                }
                case Predicate::Kind::kCompare: {
                    std::string expr = value_expr(ctx, pred.path);
                    const char* op = pred.op == "=" ? " = " : " <> ";
                    sql.where.push_back(expr + op + sql_quote(pred.literal));
                    break;
                }
                case Predicate::Kind::kAncestor: {
                    // [ancestor::name] by interval enclosure: an ancestor's
                    // interval strictly contains the context's pre label.
                    // Duplicate matches (same-name nested ancestors) are
                    // deduplicated by the DISTINCT / COUNT(DISTINCT) yields.
                    const std::string& name = pred.path.elements.front();
                    const rel::TableSchema* anc = entity_target(name);
                    if (!has_labels(ctx.table))
                        throw QueryError(
                            "'" + ctx.node + "' carries no structural "
                            "(pre, post) labels ([ancestor::...] needs an "
                            "entity context)");
                    std::string a = sql.alias();
                    sql.joins.push_back("JOIN " + anc->name + " " + a + " ON " +
                                        a + ".pre < " + ctx.alias +
                                        ".pre AND " + ctx.alias + ".pre < " +
                                        a + ".post");
                    interval_plan = true;
                    note("[ancestor::" + name + "]: interval containment join");
                    break;
                }
            }
        }
    };

    // Root.  A root descendant step ('//x') selects every x element: the
    // entity table itself — every row IS an x element — so the plan is a
    // bare table scan with no joins at all.
    NodeCtx ctx;
    if (root_step.descendant) {
        const rel::TableSchema* target = entity_target(root_step.name);
        ctx = {root_step.name, sql.alias(), target, "", ""};
        interval_plan = true;
        note("//" + root_step.name + ": entity table scan");
    } else {
        ctx = {root_step.name, sql.alias(), node_table(root_step.name), "", ""};
    }
    sql.from = ctx.table->name + " " + ctx.alias;
    apply_predicates(ctx, root_step);

    // Element steps.
    std::size_t i = 1;
    std::string final_value;  // set when the path ends in a value step
    for (; i < query.steps.size(); ++i) {
        const Step& step = query.steps[i];
        if (step.attribute) {
            final_value = attribute_expr(ctx, step.name);
            break;
        }
        if (step.text_fn) {
            const rel::Column* c =
                ctx.table->column_by_role(rel::ColumnRole::kText);
            if (c != nullptr) {
                final_value = ctx.alias + "." + c->name;
            } else {
                // The element may have been fully distilled; its text lives
                // in owner columns — not reachable once we are *at* the
                // element.  Report plainly.
                throw QueryError("'" + ctx.node + "' has no text content column");
            }
            break;
        }
        if (step.descendant) {
            if (!sql.group_by.empty())
                throw QueryError(
                    "positional predicate must be on the final element step");
            ctx = navigate_descendant(ctx, step.name);
            apply_predicates(ctx, step);
            continue;
        }
        // Distilled final element step yields a value column directly.
        bool is_last = i + 1 == query.steps.size();
        if (is_last && step.predicates.empty()) {
            auto dit = distilled_.find(ctx.node);
            if (dit != distilled_.end()) {
                auto cit = dit->second.find(step.name);
                if (cit != dit->second.end()) {
                    final_value = ctx.alias + "." + cit->second;
                    break;
                }
            }
        }
        if (!sql.group_by.empty())
            throw QueryError(
                "positional predicate must be on the final element step");
        ctx = navigate(ctx, step.name);
        apply_predicates(ctx, step);
    }

    Translation out;
    out.target_entity = ctx.node;
    const bool grouped = !sql.group_by.empty();  // positional predicate used
    // Joins are the only source of duplicate result rows (pks are unique
    // within a table), so a join-free plan — notably the '//x' entity table
    // scan — skips deduplication entirely.
    const bool dedup = !grouped && !sql.joins.empty();
    if (query.count) {
        out.yield = Translation::Yield::kCount;
        if (grouped)
            throw QueryError(
                "count() over a positional predicate would need nested "
                "aggregation");
        if (!final_value.empty()) {
            sql.where.push_back(final_value + " IS NOT NULL");
            out.sql = sql.render("COUNT(" + final_value + ")");
        } else if (dedup) {
            out.sql = sql.render("COUNT(DISTINCT " + ctx.alias + ".pk)");
        } else {
            out.sql = sql.render("COUNT(*)");
        }
    } else if (!final_value.empty()) {
        out.yield = Translation::Yield::kStrings;
        // Grouping already deduplicates; otherwise DISTINCT does.
        out.sql = sql.render((dedup ? "DISTINCT " : "") + ctx.alias + ".pk, " +
                             final_value);
    } else {
        out.yield = Translation::Yield::kNodes;
        out.sql = sql.render((dedup ? "DISTINCT " : "") + ctx.alias + ".pk");
    }
    out.join_count = sql.joins.size();
    out.interval_plan = interval_plan;
    out.plan_notes = plan_notes;
    return out;
}

}  // namespace xr::xquery
