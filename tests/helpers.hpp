// Shared fixtures for the test suite.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "dtd/parser.hpp"
#include "gen/corpora.hpp"
#include "loader/bulk_loader.hpp"
#include "loader/loader.hpp"
#include "mapping/pipeline.hpp"
#include "rel/materialize.hpp"
#include "rel/translate.hpp"
#include "xml/parser.hpp"

namespace xr::test {

/// Self-deleting scratch directory for durability tests.
class TempDir {
public:
    TempDir() {
        std::string tmpl = (std::filesystem::temp_directory_path() /
                            "xmlrel-test-XXXXXX")
                               .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (::mkdtemp(buf.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed for " + tmpl);
        path_ = buf.data();
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    [[nodiscard]] const std::string& path() const { return path_; }

private:
    std::string path_;
};

/// The whole stack for one DTD: mapping, schema, database, loader.
struct Stack {
    dtd::Dtd logical;
    mapping::MappingResult mapping;
    rel::RelationalSchema schema;
    rdb::Database db;
    std::unique_ptr<loader::Loader> loader;

    explicit Stack(const std::string& dtd_text,
                   const mapping::MappingOptions& options = {}) {
        logical = dtd::parse_dtd(dtd_text);
        mapping = mapping::map_dtd(logical, options);
        schema = rel::translate(mapping);
        rel::materialize(schema, mapping, db);
        loader = std::make_unique<loader::Loader>(logical, mapping, schema, db);
    }

    explicit Stack(dtd::Dtd dtd, const mapping::MappingOptions& options = {}) {
        logical = std::move(dtd);
        mapping = mapping::map_dtd(logical, options);
        schema = rel::translate(mapping);
        rel::materialize(schema, mapping, db);
        loader = std::make_unique<loader::Loader>(logical, mapping, schema, db);
    }
};

/// The Stack, backed by a data directory: the database is open()ed (and
/// thus recovered) before the schema materializes.  On a reopen the
/// recovered tables are kept and materialization is skipped — the Loader
/// then resumes doc-id assignment where the recovered xrel_docs left off.
struct DurableStack {
    dtd::Dtd logical;
    mapping::MappingResult mapping;
    rel::RelationalSchema schema;
    rdb::Database db;
    rdb::RecoveryReport recovery;
    std::unique_ptr<loader::Loader> loader;

    DurableStack(const std::string& dtd_text, const std::string& dir,
                 const rdb::DurabilityOptions& opts = {},
                 const mapping::MappingOptions& mopts = {})
        : DurableStack(dtd::parse_dtd(dtd_text), dir, opts, mopts) {}

    DurableStack(dtd::Dtd dtd, const std::string& dir,
                 const rdb::DurabilityOptions& opts = {},
                 const mapping::MappingOptions& mopts = {}) {
        logical = std::move(dtd);
        mapping = mapping::map_dtd(logical, mopts);
        schema = rel::translate(mapping);
        recovery = db.open(dir, opts);
        if (db.table_count() == 0) {
            rel::materialize(schema, mapping, db);
            // Depth-0 DDL only hits the WAL at the next commit; force it
            // out so the schema survives even if no document ever does.
            db.flush_wal();
        }
        loader = std::make_unique<loader::Loader>(logical, mapping, schema, db);
    }
};

/// The corpus driver's options for `xmlrel_cli load`'s default: one
/// worker, validating.
inline loader::BulkLoadOptions one_worker(
    loader::FailurePolicy on_error = loader::FailurePolicy::kFailFast) {
    loader::BulkLoadOptions options;
    options.jobs = 1;
    options.validate = true;
    options.on_error = on_error;
    return options;
}

/// Load `texts` into a Stack or DurableStack through BulkLoader.
template <typename S>
loader::LoadReport load_texts(S& stack, const std::vector<std::string>& texts,
                              const loader::BulkLoadOptions& options =
                                  one_worker()) {
    loader::BulkLoader bulk(stack.logical, stack.mapping, stack.schema,
                            stack.db);
    return bulk.load_texts(texts, options);
}

/// Every cell of every table in physical order — the byte-identical
/// database comparison the atomicity tests rely on.  Restored pk counters
/// are not directly visible here; tests probe them by loading more data
/// after a rollback and fingerprinting again.
inline std::vector<std::string> db_fingerprint(const rdb::Database& db) {
    std::vector<std::string> out;
    for (const auto& name : db.table_names()) {
        const rdb::Table& t = db.require(name);
        for (rdb::RowId id = 0; id < t.row_count(); ++id) {
            std::string line = name;
            for (const auto& v : t.row(id)) line += "|" + v.to_string();
            out.push_back(std::move(line));
        }
    }
    return out;
}

}  // namespace xr::test
