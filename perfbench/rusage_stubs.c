/* waitpid that also returns the child's peak resident set size, so the
   benchmark can report the largest VmHWM among the processes doing the
   work (Linux reports ru_maxrss in KiB). */
#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* perf_wait4 : int -> int * int * int
   (exit code or -1, terminating signal or 0, maxrss KiB) */
CAMLprim value perf_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) uerror("wait4", Nothing);
  res = caml_alloc_tuple(3);
  Store_field(res, 0, Val_int(WIFEXITED(status) ? WEXITSTATUS(status) : -1));
  Store_field(res, 1, Val_int(WIFSIGNALED(status) ? WTERMSIG(status) : 0));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
