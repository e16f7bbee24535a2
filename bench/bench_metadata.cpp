// Experiment §5-meta — metadata capture cost and completeness.
//
// The paper's answer to information the relational model drops (ordering,
// occurrence, provenance) is metadata tables.  This bench measures what
// that costs — extra rows, bytes and load time — and verifies completeness:
// schema ordering and occurrence constraints can be reconstructed from the
// xrel_* tables alone.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "sql/executor.hpp"

namespace {

using namespace xr;

void print_report() {
    std::cout << "=== §5-meta: metadata capture cost ===\n";
    TablePrinter table({"dtd", "data tables", "meta tables", "meta rows",
                        "meta bytes", "share of db bytes"});

    for (auto& [label, dtd] :
         std::vector<std::pair<std::string, dtd::Dtd>>{
             {"paper", gen::paper_dtd()},
             {"orders", gen::orders_dtd()},
             {"synthetic n=100", bench::synthetic_dtd(100)},
             {"synthetic n=400", bench::synthetic_dtd(400)}}) {
        mapping::MappingResult r = mapping::map_dtd(dtd);
        rel::RelationalSchema schema = rel::translate(r);
        rdb::Database db;
        rel::materialize(schema, r, db);

        std::size_t meta_rows = 0, meta_bytes = 0, data_tables = 0;
        for (const auto& t : schema.tables()) {
            const rdb::Table& storage = db.require(t.name);
            if (t.kind == rel::TableKind::kMetadata) {
                meta_rows += storage.row_count();
                meta_bytes += storage.memory_bytes();
            } else {
                ++data_tables;
            }
        }
        table.add_row({label, std::to_string(data_tables),
                       std::to_string(schema.table_count(rel::TableKind::kMetadata)),
                       std::to_string(meta_rows), std::to_string(meta_bytes),
                       format_double(100.0 * meta_bytes / db.memory_bytes(), 1)});
    }
    std::cout << table.to_string() << "\n";

    // Completeness: reconstruct ordering and occurrence purely via SQL.
    std::cout << "=== §5-meta: round-trip checks (SQL over xrel_*) ===\n";
    bench::Stack stack(gen::paper_dtd());
    bool ok = true;

    for (const auto& entry : stack.mapping.metadata.schema_order) {
        auto rs = sql::execute(stack.db,
                               "SELECT child FROM xrel_schema_order WHERE "
                               "element = '" + entry.element +
                               "' ORDER BY position");
        if (rs.row_count() != entry.children_in_order.size()) ok = false;
        for (std::size_t i = 0; i < rs.row_count() && ok; ++i)
            ok = rs.at(i, 0).as_text() == entry.children_in_order[i];
    }
    std::cout << "  [" << (ok ? "ok" : "FAIL")
              << "] schema ordering reconstructed for "
              << stack.mapping.metadata.schema_order.size() << " elements\n";

    auto occ = sql::execute(stack.db,
                            "SELECT COUNT(*) FROM xrel_relationships "
                            "WHERE occurrence <> ''");
    std::cout << "  [" << (occ.scalar().as_integer() > 0 ? "ok" : "FAIL")
              << "] occurrence indicators preserved ("
              << occ.scalar().to_string() << " non-trivial)\n";

    auto distilled = sql::execute(stack.db,
                                  "SELECT element, attr, position FROM "
                                  "xrel_attributes WHERE distilled = 1 "
                                  "ORDER BY element, position");
    std::cout << "  [" << (distilled.row_count() == 5 ? "ok" : "FAIL")
              << "] distilled-attribute provenance (5 rows: booktitle, "
                 "title x2, firstname, lastname)\n\n";
}

void BM_Materialize_WithMetadata(benchmark::State& state) {
    mapping::MappingResult r =
        mapping::map_dtd(bench::synthetic_dtd(static_cast<std::size_t>(state.range(0))));
    rel::RelationalSchema schema = rel::translate(r);
    for (auto _ : state) {
        rdb::Database db;
        rel::materialize(schema, r, db);
        benchmark::DoNotOptimize(db.table_count());
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Materialize_WithMetadata)->Range(16, 512)->Complexity();

void BM_Materialize_WithoutMetadata(benchmark::State& state) {
    mapping::MappingResult r =
        mapping::map_dtd(bench::synthetic_dtd(static_cast<std::size_t>(state.range(0))));
    rel::TranslateOptions options;
    options.metadata_tables = false;
    rel::RelationalSchema schema = rel::translate(r, options);
    rel::MaterializeOptions mat;
    mat.populate_metadata = false;
    for (auto _ : state) {
        rdb::Database db;
        rel::materialize(schema, r, db, mat);
        benchmark::DoNotOptimize(db.table_count());
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Materialize_WithoutMetadata)->Range(16, 512)->Complexity();

void BM_IdLookup_HashIndex(benchmark::State& state) {
    bench::Stack stack(gen::paper_dtd());
    for (auto& doc : gen::bibliography_corpus(64, 300, 5))
        stack.loader->load(*doc);
    const rdb::Table& ids = stack.db.require("xrel_ids");
    std::vector<rdb::Value> keys;
    for (rdb::RowId id = 0; id < ids.row_count(); ++id)
        keys.push_back(ids.cell(id, 2));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ids.index_lookup("idval", keys[i++ % keys.size()]));
    }
}
BENCHMARK(BM_IdLookup_HashIndex);

void BM_IdLookup_OrderedIndex(benchmark::State& state) {
    // DESIGN.md ablation: hash vs ordered index for ID resolution.
    mapping::MappingResult r = mapping::map_dtd(gen::paper_dtd());
    rel::RelationalSchema schema = rel::translate(r);
    rdb::Database db;
    rel::MaterializeOptions options;
    options.index_kind = rdb::IndexKind::kOrdered;
    rel::materialize(schema, r, db, options);
    dtd::Dtd logical = gen::paper_dtd();
    loader::Loader loader(logical, r, schema, db);
    for (auto& doc : gen::bibliography_corpus(64, 300, 5))
        loader.load(*doc);
    const rdb::Table& ids = db.require("xrel_ids");
    std::vector<rdb::Value> keys;
    for (rdb::RowId id = 0; id < ids.row_count(); ++id)
        keys.push_back(ids.cell(id, 2));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ids.index_lookup("idval", keys[i++ % keys.size()]));
    }
}
BENCHMARK(BM_IdLookup_OrderedIndex);

}  // namespace

int main(int argc, char** argv) {
    print_report();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
