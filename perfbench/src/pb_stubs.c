/* Clock and pacing primitives for the end-to-end benchmark.

   [pb_now_ns] reads CLOCK_MONOTONIC as an untagged native int, so a
   timed loop can take timestamps without allocating.  [pb_sleep_until]
   sleeps to an absolute CLOCK_MONOTONIC deadline (the open-loop
   writers' schedule), releasing the domain lock so that the other
   domain's stop-the-world minor collections are not held up by a
   sleeping writer. */

#define _GNU_SOURCE
#include <errno.h>
#include <time.h>

#include <caml/mlvalues.h>
#include <caml/signals.h>

intnat pb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value pb_now_ns_byte(value unit)
{
  return Val_long(pb_now_ns(unit));
}

value pb_sleep_until(intnat deadline_ns)
{
  struct timespec ts;
  ts.tv_sec = deadline_ns / 1000000000;
  ts.tv_nsec = deadline_ns % 1000000000;
  caml_enter_blocking_section();
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, NULL) == EINTR) {
  }
  caml_leave_blocking_section();
  return Val_unit;
}

value pb_sleep_until_byte(value deadline_ns)
{
  return pb_sleep_until(Long_val(deadline_ns));
}

#include <sched.h>
#include <caml/alloc.h>

/* The CPUs this thread may run on, as an int array. */
value pb_allowed_cpus(value unit)
{
  cpu_set_t allowed;
  int n = 0, k = 0;
  value cpus;
  (void)unit;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return caml_alloc_tuple(0);
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &allowed)) n++;
  if (n == 0) return caml_alloc_tuple(0);
  cpus = caml_alloc_tuple(n);
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &allowed)) Field(cpus, k++) = Val_int(cpu);
  return cpus;
}

/* Pin the calling thread to one CPU. */
value pb_pin_cpu(value cpu)
{
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(Int_val(cpu), &one);
  return Val_bool(sched_setaffinity(0, sizeof one, &one) == 0);
}

#include <sys/prctl.h>

/* Let this thread's timed sleeps end within [ns] of their deadline
   (the kernel's default slack is 50 us). */
value pb_timer_slack(value ns)
{
  return Val_bool(prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0) == 0);
}
