/* Monotonic nanosecond clock for the benchmark: CLOCK_MONOTONIC never
   steps backwards and resolves far below the microsecond. The result is
   an OCaml immediate int (63 bits hold ~146 years of nanoseconds), so
   the read allocates nothing. */
#include <time.h>
#include <caml/mlvalues.h>

value perfbench_clock_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

value perfbench_clock_getres_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_getres(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}
