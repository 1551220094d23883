/* Obs.default_clock: CLOCK_MONOTONIC in nanoseconds. It never steps
   backwards and resolves far below the microsecond. The native stub
   returns an unboxed double, so a read allocates nothing. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double obs_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

value obs_monotonic_ns_byte(value unit)
{
  return caml_copy_double(obs_monotonic_ns(unit));
}
