// Allocation budget of CO extraction: a counting global operator new
// measures the heap allocations one warm deps_ARC execution makes inside
// ExecuteGraph (plan, spool builds, joins, delivery) over the 180-department
// dept database, and bounds them per delivered stream item. Flat row
// storage keeps this near 8; one heap vector per spooled row, hash key and
// tid-map entry costs about 22.
//
// Only allocations made by the test's own thread while counting is on are
// counted, so background threads (sampler, watchdog) add no noise.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "api/database.h"
#include "bench/workloads.h"
#include "exec/executor.h"
#include "parser/parser.h"
#include "xnf/compiler.h"

namespace {

thread_local bool counting = false;
thread_local int64_t allocations = 0;

void* CountedAlloc(std::size_t n) {
  if (counting) ++allocations;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xnfdb {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

TEST(AllocBudgetTest, DepsArcExtractionStaysUnderTenAllocationsPerItem) {
  if (kSanitized) GTEST_SKIP() << "sanitizer runtimes own the allocator";
  Database db;
  db.matviews().set_enabled(false);
  bench::DeptDbParams params;
  params.departments = 180;
  ASSERT_TRUE(bench::PopulateDeptDb(&db, params).ok());
  Result<std::unique_ptr<ast::XnfQuery>> query =
      ParseXnfQuery(bench::kDepsArcQuery);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  Result<CompiledQuery> compiled = CompileXnf(db.catalog(), *query.value());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  // The default execution configuration, pinned against the env knobs.
  ExecOptions eo;
  eo.batch_size = kDefaultBatchSize;
  eo.plan.morsel_workers = 1;
  // Warm-up: lazily computed table statistics are not the executor's cost.
  ASSERT_TRUE(ExecuteGraph(db.catalog(), *compiled.value().graph, eo).ok());

  allocations = 0;
  counting = true;
  Result<QueryResult> r =
      ExecuteGraph(db.catalog(), *compiled.value().graph, eo);
  counting = false;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const size_t items = r.value().stream.size();
  ASSERT_GT(items, 4000u);
  const double per_item =
      static_cast<double>(allocations) / static_cast<double>(items);
  RecordProperty("allocations", std::to_string(allocations));
  RecordProperty("stream_items", std::to_string(items));
  EXPECT_LE(per_item, 10.0) << allocations << " allocations for " << items
                            << " delivered stream items";
}

}  // namespace
}  // namespace xnfdb
