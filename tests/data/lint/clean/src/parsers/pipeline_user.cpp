// Fixture: a pool user whose tasks capture by value only (clean).
struct Pool {
  template <typename F> int submit(F f) { return f(), 0; }
};

int run(Pool& pool) {
  const int seed = 7;
  pool.submit([seed, n = 4] { return seed + n; });
  return pool.submit([seed] { return seed + 1; });
}
