// Clean fixture: every seeded violation carries a well-formed
// suppression, so the whole file must produce zero findings.
#include <cstdlib>
#include <unordered_map>  // lint: allow(no-unordered) fixture exercises the same-line suppression path

int seeded() {
  std::srand(7);  // lint: allow(no-rand) reproducing a libc consumer under test
  return std::rand();  // lint: allow(no-rand) reproducing a libc consumer under test
}

// lint: allow(no-getenv) standalone-comment suppression covers the next line
const char* raw = std::getenv("READDUO_THREADS");

double tolerance_check(double x) {
  // lint: allow(unit-conv) convergence epsilon, not a time conversion
  return x < 1e-9 ? 0.0 : x;
}

// Plain deterministic code: no suppressions needed, no findings expected.
long long scaled(long long v) { return v * 3; }
