#include "rel/translate.hpp"

namespace xr::rel {

namespace {

using rdb::ValueType;

Column pk_column() {
    return {"pk", ValueType::kInteger, true, true, ColumnRole::kPrimaryKey, "", ""};
}

Column doc_column() {
    return {"doc", ValueType::kInteger, true, false, ColumnRole::kDocId, "", ""};
}

Column ord_column() {
    return {"ord", ValueType::kInteger, false, false, ColumnRole::kOrdinal, "", ""};
}

Column label_column(std::string name) {
    return {std::move(name), ValueType::kInteger, false, false,
            ColumnRole::kLabel, "", ""};
}

Column fk_column(std::string name, std::string references, bool not_null,
                 std::string source) {
    return {std::move(name), ValueType::kInteger, not_null, false,
            ColumnRole::kForeignKey, std::move(references), std::move(source)};
}

class Translator {
public:
    Translator(const mapping::MappingResult& mapping,
               const TranslateOptions& options)
        : m_(mapping), options_(options) {}

    RelationalSchema run() {
        table_names_.reserve(kIdRegistryTable);
        table_names_.reserve(kTextSegmentsTable);
        table_names_.reserve(kOverflowTable);
        for (const char* name :
             {"xrel_elements", "xrel_attributes", "xrel_relationships",
              "xrel_schema_order", "xrel_mapping", "xrel_docs"})
            table_names_.reserve(name);

        for (const auto& e : m_.model.entities()) add_entity(e);
        for (const auto& r : m_.model.relationships()) {
            switch (r.kind) {
                case er::RelationshipKind::kNested: add_nested(r); break;
                case er::RelationshipKind::kNestedGroup: add_group(r); break;
                case er::RelationshipKind::kReference: add_reference(r); break;
            }
        }
        add_id_registry();
        add_text_segments();
        add_overflow();
        if (options_.metadata_tables) add_metadata_tables();
        return std::move(schema_);
    }

private:
    const mapping::MappingResult& m_;
    const TranslateOptions& options_;
    RelationalSchema schema_;
    IdentifierPool table_names_;

    void maybe_doc(TableSchema& t) {
        if (options_.doc_column) t.columns.push_back(doc_column());
    }

    void maybe_ord(TableSchema& t, bool repeatable) {
        if (!options_.ordinal_columns) return;
        if (options_.ordinal_only_where_repeatable && !repeatable) return;
        t.columns.push_back(ord_column());
    }

    void add_entity(const er::Entity& e) {
        TableSchema t;
        t.name = table_names_.allocate(e.name);
        t.kind = TableKind::kEntity;
        t.source = e.name;
        t.columns.push_back(pk_column());
        maybe_doc(t);

        IdentifierPool columns;
        for (const char* reserved :
             {"pk", "doc", "ord", "pcdata", "raw_xml", "pre", "post", "level"})
            columns.reserve(reserved);

        for (const auto& a : e.attributes) {
            Column c;
            c.name = columns.allocate(a.name);
            c.type = ValueType::kText;
            c.not_null = a.required;
            c.role = ColumnRole::kAttribute;
            c.source = a.name;
            t.columns.push_back(std::move(c));
        }
        if (e.origin == er::EntityOrigin::kAnyElement) {
            t.columns.push_back({"raw_xml", ValueType::kText, false, false,
                                 ColumnRole::kRawXml, "", ""});
        } else if (e.has_text) {
            t.columns.push_back({"pcdata", ValueType::kText, false, false,
                                 ColumnRole::kText, "", ""});
        }
        // Dietz interval labels: descendant(d, a) ⇔ a.pre < d.pre < a.post.
        t.columns.push_back(label_column("pre"));
        t.columns.push_back(label_column("post"));
        t.columns.push_back(label_column("level"));
        schema_.add_table(std::move(t));
    }

    [[nodiscard]] std::string entity_table_name(const std::string& entity) const {
        const TableSchema* t = schema_.entity_table(entity);
        return t == nullptr ? std::string() : t->name;
    }

    void add_nested(const er::Relationship& r) {
        const std::string parent = entity_table_name(r.parent);
        if (parent.empty() || r.members.empty()) return;
        const std::string child = entity_table_name(r.members.front().entity);
        if (child.empty()) return;

        TableSchema t;
        t.name = table_names_.allocate(r.name);
        t.kind = TableKind::kNestedRel;
        t.source = r.name;
        t.columns.push_back(pk_column());
        maybe_doc(t);
        t.columns.push_back(fk_column("parent_pk", parent, true, r.parent));
        t.columns.push_back(
            fk_column("child_pk", child, true, r.members.front().entity));
        maybe_ord(t, dtd::is_repeatable(r.members.front().occurrence));
        schema_.add_table(std::move(t));
    }

    void add_group(const er::Relationship& r) {
        // The parent is an entity, or — for a group hoisted from inside
        // another group — the enclosing NESTED_GROUP relationship.
        std::string parent = entity_table_name(r.parent);
        if (parent.empty()) {
            const TableSchema* t =
                schema_.table_for(TableKind::kGroupRel, r.parent);
            if (t != nullptr) parent = t->name;
        }
        if (parent.empty()) return;

        TableSchema t;
        t.name = table_names_.allocate(r.name);
        t.kind = TableKind::kGroupRel;
        t.source = r.name;
        t.columns.push_back(pk_column());
        maybe_doc(t);
        t.columns.push_back(fk_column("parent_pk", parent, true, r.parent));
        maybe_ord(t, dtd::is_repeatable(r.occurrence));

        IdentifierPool columns;
        for (const char* reserved : {"pk", "doc", "ord", "parent_pk"})
            columns.reserve(reserved);

        for (const auto& a : r.attributes) {
            Column c;
            c.name = columns.allocate(a.name);
            c.type = ValueType::kText;
            c.not_null = a.required;
            c.role = ColumnRole::kAttribute;
            c.source = a.name;
            t.columns.push_back(std::move(c));
        }

        struct PendingLink {
            std::string member;
            std::string member_table;
        };
        std::vector<PendingLink> links;

        for (const auto& member : r.members) {
            const std::string member_table = entity_table_name(member.entity);
            if (member_table.empty()) continue;
            if (dtd::is_repeatable(member.occurrence)) {
                links.push_back({member.entity, member_table});
            } else {
                // Nullable unless the member is a mandatory sequence slot.
                bool required = !member.choice &&
                                member.occurrence == dtd::Occurrence::kOne;
                t.columns.push_back(fk_column(
                    columns.allocate(member.entity + "_pk"), member_table,
                    required, member.entity));
            }
        }
        const std::string group_table = t.name;
        schema_.add_table(std::move(t));

        for (const auto& link : links) {
            TableSchema lt;
            lt.name = table_names_.allocate(r.name + "_" + link.member);
            lt.kind = TableKind::kGroupMemberLink;
            lt.source = r.name;
            lt.source2 = link.member;
            lt.columns.push_back(pk_column());
            maybe_doc(lt);
            lt.columns.push_back(fk_column("group_pk", group_table, true, r.name));
            lt.columns.push_back(
                fk_column("member_pk", link.member_table, true, link.member));
            maybe_ord(lt, true);
            schema_.add_table(std::move(lt));
        }
    }

    void add_reference(const er::Relationship& r) {
        const std::string source = entity_table_name(r.parent);
        if (source.empty()) return;

        TableSchema t;
        t.name = table_names_.allocate("ref_" + r.name);
        t.kind = TableKind::kReferenceRel;
        t.source = r.name;
        t.columns.push_back(pk_column());
        maybe_doc(t);
        t.columns.push_back(fk_column("source_pk", source, true, r.parent));
        t.columns.push_back({"idref", ValueType::kText, true, false,
                             ColumnRole::kIdValue, "", ""});
        maybe_ord(t, dtd::is_repeatable(r.occurrence));
        // Polymorphic resolved target: any ID-bearing entity.
        t.columns.push_back({"target_entity", ValueType::kText, false, false,
                             ColumnRole::kMeta, "", ""});
        t.columns.push_back({"target_pk", ValueType::kInteger, false, false,
                             ColumnRole::kForeignKey, "", ""});
        schema_.add_table(std::move(t));
    }

    void add_id_registry() {
        bool needed = false;
        for (const auto& e : m_.model.entities()) {
            for (const auto& a : e.attributes)
                if (a.type == dtd::AttrType::kId) needed = true;
        }
        for (const auto& r : m_.model.relationships())
            if (r.kind == er::RelationshipKind::kReference) needed = true;
        if (!needed) return;

        TableSchema t;
        t.name = kIdRegistryTable;
        t.kind = TableKind::kIdRegistry;
        t.source = kIdRegistryTable;
        t.columns.push_back(pk_column());
        maybe_doc(t);
        t.columns.push_back({"idval", ValueType::kText, true, false,
                             ColumnRole::kIdValue, "", ""});
        t.columns.push_back({"entity", ValueType::kText, true, false,
                             ColumnRole::kMeta, "", ""});
        t.columns.push_back({"entity_pk", ValueType::kInteger, true, false,
                             ColumnRole::kForeignKey, "", ""});
        schema_.add_table(std::move(t));
    }

    void add_text_segments() {
        bool mixed = false;
        for (const auto& e : m_.converted.elements)
            if (e.residual == mapping::ResidualContent::kMixed) mixed = true;
        if (!mixed) return;

        TableSchema t;
        t.name = kTextSegmentsTable;
        t.kind = TableKind::kTextSegments;
        t.source = kTextSegmentsTable;
        t.columns.push_back(pk_column());
        maybe_doc(t);
        t.columns.push_back({"entity", ValueType::kText, true, false,
                             ColumnRole::kMeta, "", ""});
        t.columns.push_back({"parent_pk", ValueType::kInteger, true, false,
                             ColumnRole::kForeignKey, "", ""});
        maybe_ord(t, true);
        t.columns.push_back({"content", ValueType::kText, true, false,
                             ColumnRole::kText, "", ""});
        schema_.add_table(std::move(t));
    }

    void add_overflow() {
        TableSchema t;
        t.name = kOverflowTable;
        t.kind = TableKind::kOverflow;
        t.source = kOverflowTable;
        t.columns.push_back(pk_column());
        maybe_doc(t);
        t.columns.push_back({"parent_entity", ValueType::kText, true, false,
                             ColumnRole::kMeta, "", ""});
        t.columns.push_back({"parent_pk", ValueType::kInteger, true, false,
                             ColumnRole::kForeignKey, "", ""});
        maybe_ord(t, true);
        t.columns.push_back({"raw_xml", ValueType::kText, true, false,
                             ColumnRole::kRawXml, "", ""});
        schema_.add_table(std::move(t));
    }

    void add_metadata_tables() {
        auto meta_col = [](std::string name,
                           ValueType type = ValueType::kText) -> Column {
            return {std::move(name), type, false, false, ColumnRole::kMeta, "", ""};
        };
        auto add = [&](std::string name, std::vector<Column> cols) {
            TableSchema t;
            t.name = std::move(name);
            t.kind = TableKind::kMetadata;
            t.source = t.name;
            t.columns.push_back(pk_column());
            for (auto& c : cols) t.columns.push_back(std::move(c));
            schema_.add_table(std::move(t));
        };
        add("xrel_elements", {meta_col("name"), meta_col("residual")});
        add("xrel_attributes",
            {meta_col("element"), meta_col("attr"), meta_col("type"),
             meta_col("default_kind"), meta_col("default_value"),
             meta_col("distilled", ValueType::kInteger),
             meta_col("position", ValueType::kInteger)});
        add("xrel_relationships",
            {meta_col("name"), meta_col("kind"), meta_col("parent"),
             meta_col("member"), meta_col("occurrence"),
             meta_col("is_choice", ValueType::kInteger),
             meta_col("position", ValueType::kInteger)});
        add("xrel_schema_order",
            {meta_col("element"), meta_col("position", ValueType::kInteger),
             meta_col("child")});
        add("xrel_mapping",
            {meta_col("kind"), meta_col("source"), meta_col("target")});
        // Loaded-document registry: which entity row is each document's
        // root (filled by the loader; reconstruction starts here).
        add("xrel_docs", {meta_col("doc", ValueType::kInteger),
                          meta_col("root_entity"),
                          meta_col("root_pk", ValueType::kInteger),
                          meta_col("label_base", ValueType::kInteger),
                          meta_col("label_span", ValueType::kInteger)});
    }
};

}  // namespace

RelationalSchema translate(const mapping::MappingResult& mapping,
                           const TranslateOptions& options) {
    Translator translator(mapping, options);
    return translator.run();
}

}  // namespace xr::rel
