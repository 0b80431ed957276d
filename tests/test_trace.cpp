// Tests for the synthetic trace substrate.
#include "trace/generator.h"
#include "trace/workload.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/check.h"

namespace rd::trace {
namespace {

TEST(Workloads, FourteenSpecBenchmarks) {
  EXPECT_EQ(spec2006_workloads().size(), 14u);
  // The paper's running examples exist.
  EXPECT_NO_THROW(workload_by_name("mcf"));
  EXPECT_NO_THROW(workload_by_name("sphinx3"));
  EXPECT_NO_THROW(workload_by_name("bzip2"));
  EXPECT_THROW(workload_by_name("doom"), CheckFailure);
}

TEST(Workloads, ParametersSane) {
  for (const Workload& w : spec2006_workloads()) {
    EXPECT_GT(w.rpki, 0.0) << w.name;
    EXPECT_GE(w.wpki, 0.0) << w.name;
    EXPECT_GT(w.footprint_lines, 0u) << w.name;
    EXPECT_GT(w.archive_lines, 0u) << w.name;
    EXPECT_GE(w.archive_read_fraction, 0.0) << w.name;
    EXPECT_LT(w.archive_read_fraction, 1.0) << w.name;
    EXPECT_LT(w.zipf_s, 1.0) << w.name;  // rank-age model needs s < 1
  }
}

TEST(Workloads, SphinxIsTheArchiveScanCase) {
  const Workload& s = workload_by_name("sphinx3");
  EXPECT_TRUE(s.archive_scan);
  EXPECT_GT(s.archive_read_fraction, 0.5);
  EXPECT_GT(s.rpki / s.wpki, 10.0);  // read-mostly
}

TEST(TraceGen, Deterministic) {
  const Workload& w = workload_by_name("mcf");
  TraceGen a(w, 0, 42), b(w, 0, 42);
  for (int i = 0; i < 1000; ++i) {
    const MemOp x = a.next(), y = b.next();
    EXPECT_EQ(x.line, y.line);
    EXPECT_EQ(x.is_write, y.is_write);
    EXPECT_EQ(x.gap_instructions, y.gap_instructions);
  }
}

TEST(TraceGen, CoresUseDisjointSlices) {
  const Workload& w = workload_by_name("bzip2");
  TraceGen g0(w, 0, 1), g1(w, 1, 1);
  const std::uint64_t slice = w.footprint_lines + w.archive_lines;
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(g0.next().line, slice);
    const MemOp op = g1.next();
    EXPECT_GE(op.line, slice);
    EXPECT_LT(op.line, 2 * slice);
  }
}

TEST(TraceGen, WriteFractionMatchesWpki) {
  const Workload& w = workload_by_name("lbm");
  TraceGen g(w, 0, 3);
  int writes = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) writes += g.next().is_write ? 1 : 0;
  const double expect = w.wpki / (w.rpki + w.wpki);
  EXPECT_NEAR(static_cast<double>(writes) / n, expect, 0.01);
}

TEST(TraceGen, GapMatchesOpsPerKiloInstruction) {
  const Workload& w = workload_by_name("mcf");
  TraceGen g(w, 0, 4);
  double gaps = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    gaps += static_cast<double>(g.next().gap_instructions);
  }
  const double mean_gap = gaps / n;
  const double expect = 1000.0 / (w.rpki + w.wpki);
  EXPECT_NEAR(mean_gap / expect, 1.0, 0.05);
}

TEST(TraceGen, ArchiveFractionOfReads) {
  const Workload& w = workload_by_name("sphinx3");
  TraceGen g(w, 0, 5);
  int reads = 0, archive = 0;
  for (int i = 0; i < 200000; ++i) {
    const MemOp op = g.next();
    if (!op.is_write) {
      ++reads;
      archive += op.archive ? 1 : 0;
    }
  }
  EXPECT_NEAR(static_cast<double>(archive) / reads,
              w.archive_read_fraction, 0.02);
}

TEST(TraceGen, ArchiveIsNeverWritten) {
  const Workload& w = workload_by_name("mcf");
  TraceGen g(w, 0, 6);
  for (int i = 0; i < 100000; ++i) {
    const MemOp op = g.next();
    if (op.is_write) {
      EXPECT_LT(op.line, w.footprint_lines);
      EXPECT_FALSE(op.archive);
    }
    if (op.archive) {
      EXPECT_GE(op.line, w.footprint_lines);
    }
  }
}

TEST(TraceGen, FootprintSpansManyLines) {
  // The Zipf stream must spread over the workload's footprint, not
  // collapse onto a few hot lines.
  const Workload& w = workload_by_name("lbm");
  TraceGen g(w, 0, 3);
  std::set<std::uint64_t> lines;
  for (int i = 0; i < 50000; ++i) lines.insert(g.next().line);
  EXPECT_GT(lines.size(), 1000u);
}

TEST(TraceGen, ZipfLocalityHotterLowRanks) {
  const Workload& w = workload_by_name("gcc");  // zipf 0.9
  TraceGen g(w, 0, 7);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 200000; ++i) ++counts[g.next().line % w.footprint_lines];
  // Rank 0 much hotter than rank 1000.
  EXPECT_GT(counts[0], 50);
  EXPECT_GT(counts[0], counts[1000] * 5);
}

TEST(TraceGen, ScanArchiveIsCyclicSequential) {
  const Workload& w = workload_by_name("sphinx3");
  TraceGen g(w, 0, 8);
  std::uint64_t prev = 0;
  bool have_prev = false;
  int checked = 0;
  for (int i = 0; i < 300000 && checked < 5000; ++i) {
    const MemOp op = g.next();
    if (!op.archive) continue;
    const std::uint64_t pos = op.line - g.archive_base();
    if (have_prev) {
      EXPECT_EQ(pos, (prev + 1) % w.archive_lines);
      ++checked;
    }
    prev = pos;
    have_prev = true;
  }
  EXPECT_GE(checked, 5000);
}

}  // namespace
}  // namespace rd::trace
