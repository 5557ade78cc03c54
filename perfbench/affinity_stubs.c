/* sched_setaffinity for one thread, so the benchmark can move itself and
   its server children between CPUs (see cpu.ml). */
#define _GNU_SOURCE
#include <sched.h>
#include <errno.h>
#include <caml/mlvalues.h>
#include <caml/unixsupport.h>

/* Restrict thread [tid] to the CPUs in the int array [cpus]. */
value perfbench_set_affinity(value tid, value cpus)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++)
    CPU_SET(Int_val(Field(cpus, i)), &set);
  if (sched_setaffinity(Int_val(tid), sizeof set, &set) != 0)
    uerror("sched_setaffinity", Nothing);
  return Val_unit;
}
