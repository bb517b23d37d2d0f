// Fixture: by-reference captures queued into the pool must be rejected.
struct Pool {
  template <typename F> int submit(F f) { return f(), 0; }
};

void drifted(Pool& pool) {
  int total = 0;
  pool.submit([&total] { total += 1; });
  pool.submit([&] { total += 2; });
}

void tolerated(Pool& pool) {
  int total = 0;
  // hpcfail-lint: allow(capture-lifetime) -- joined before return in this fixture
  pool.submit([&total] { total += 1; });
}

void rejected(Pool& pool) {
  int total = 0;
  // hpcfail-lint: allow(capture-lifetime)
  pool.submit([&total] { total += 1; });
}
