//===- Stats.cpp - Process-wide pass statistics registry ---------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

using namespace lao;

StatCounter::StatCounter(const char *Pass, const char *Name)
    : Pass(Pass), Name(Name) {
  StatsRegistry::instance().add(this);
}


StatsSnapshot StatsScope::snapshot() const {
  StatsSnapshot Snap;
  for (const auto &[C, V] : Local)
    if (V)
      Snap[std::string(C->pass()) + "." + C->name()] += V;
  return Snap;
}

void lao::printSnapshot(std::FILE *Out, const char *Title,
                        const StatsSnapshot &Snap) {
  std::fprintf(Out, "=== %s ===\n", Title);
  for (const auto &[Key, V] : Snap)
    if (V)
      std::fprintf(Out, "%12llu  %s\n", static_cast<unsigned long long>(V),
                   Key.c_str());
}

StatsRegistry &StatsRegistry::instance() {
  static StatsRegistry Registry;
  return Registry;
}

void StatsRegistry::add(StatCounter *C) {
  C->Next = Head.load(std::memory_order_relaxed);
  while (!Head.compare_exchange_weak(C->Next, C, std::memory_order_release,
                                     std::memory_order_relaxed))
    ;
}

StatsSnapshot StatsRegistry::snapshot() const {
  StatsSnapshot Snap;
  for (const StatCounter *C = Head.load(std::memory_order_acquire); C;
       C = C->Next)
    Snap[std::string(C->pass()) + "." + C->name()] += C->value();
  return Snap;
}

StatsSnapshot StatsRegistry::delta(const StatsSnapshot &Before,
                                   const StatsSnapshot &After) {
  StatsSnapshot D;
  for (const auto &[Key, V] : After) {
    auto It = Before.find(Key);
    uint64_t Base = It == Before.end() ? 0 : It->second;
    if (V != Base)
      D[Key] = V - Base;
  }
  return D;
}
