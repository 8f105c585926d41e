// Virtual relations backed by the observability layer instead of a heap.
//
// The paper's thesis — put the file system in the database and every piece of
// metadata becomes queryable — applies to the engine's own internals too.
// `invfs_stats` exposes the metrics registry and `invfs_spans` the recent-
// span ring as ordinary POSTQUEL range variables:
//
//   retrieve (s.name, s.value) from s in invfs_stats
//       where s.name = "buffer.hits"
//   retrieve (sp.a, sp.b) from sp in invfs_spans where sp.name = "buffer.miss"
//
// Rows are materialized at range-binding time from a registry snapshot, so a
// query sees one consistent point-in-time image and holds no lock anywhere
// near the hot paths it is observing. Virtual relations have no oid in
// pg_class, take no table locks, and support no time travel or DML.

#pragma once

#include <string_view>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/catalog/database.h"

namespace invfs {

// True for names the executor must bind to a virtual relation
// ("invfs_stats", "invfs_spans", "invfs_slo", "invfs_timeseries") instead of the catalog.
bool IsVirtualTable(std::string_view name);

// Schema-only TableInfo for a virtual relation (static storage; heap is
// null, indexes empty). Precondition: IsVirtualTable(name).
TableInfo* VirtualTableInfo(std::string_view name);

// Point-in-time rows of the virtual relation, in the schema order of
// VirtualTableInfo(name). `invfs_stats` merges the database's registry with
// the process-wide default registry (database wins on (name, label) ties).
// Precondition: IsVirtualTable(name).
std::vector<Row> MaterializeVirtualTable(Database* db, std::string_view name);

}  // namespace invfs
