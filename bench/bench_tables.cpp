//===- bench_tables.cpp - The paper's Tables 2-5 and the ablation -----------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Prints every table of BenchTables.h in the paper's format (first column
// absolute, the others as deltas against it). With --json-dir=<dir> it
// also writes each table's measurements to <dir>/BENCH_<bench>.json.
// Every cell is interpreter-checked (see runOnWorkload).
//
//===----------------------------------------------------------------------===//

#include "BenchTables.h"

using namespace lao;
using namespace lao::bench;

int main(int argc, char **argv) {
  std::string JsonDir = benchArgsOrExit(argc, argv, "--json-dir");
  for (const PaperTable &Table : paperTables()) {
    BenchReport Report;
    printDeltaTable(Table, Report);
    if (!JsonDir.empty())
      Report.writeJson(JsonDir + "/BENCH_" + Table.Bench + ".json",
                       Table.Bench);
  }
  return 0;
}
