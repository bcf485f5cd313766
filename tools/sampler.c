// sampler: an LD_PRELOAD SIGPROF stack sampler.
//
// A POSIX timer on CLOCK_MONOTONIC raises SIGPROF kHz times a second of
// wall time; the handler stores the interrupted call stack (up to kDepth
// addresses below the signal frame, via backtrace) in a buffer mapped at
// start-up. Wall-clock sampling charges time the process spends waiting
// too, which is what a single-threaded simulator's wall is made of. At
// exit identical stacks are counted and written, one line per distinct
// stack:
//
//   # sampler hz=H samples=N lost=L
//   <count> <module>+0x<offset> ...
//
// Offsets are relative to each module's load base (absolute for a non-PIE
// executable); tools/symbolize.py resolves them with addr2line and prints
// self and inclusive samples per function.
//
// Signal safety: backtrace() is not async-signal-safe. It unwinds through
// libgcc, which finds each frame's unwind table with _dl_find_object on
// glibc >= 2.35 with libgcc >= 12 (no loader lock taken), but through
// dl_iterate_phdr and the loader lock on older toolchains; there a sample
// that lands inside a dlopen, or inside exception unwinding, can deadlock
// the profiled program. Calling backtrace once at start-up only loads
// libgcc_s outside the handler. Profile programs that do neither on their
// hot paths (the simulator's benches do not), or run them under timeout(1).
//
// Build and run:
//   cc -O2 -g -shared -fPIC -o libtio_sampler.so tools/sampler.c -ldl -lrt
//   LD_PRELOAD=./libtio_sampler.so TIO_SAMPLER_OUT=prof.txt <program> ...
//   python3 tools/symbolize.py prof.txt
#define _GNU_SOURCE
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

enum {
  kDepth = 24,            // return addresses kept per sample
  kSkip = 2,              // the handler and the signal trampoline
  kMaxSamples = 1 << 18,  // about 4.4 minutes at kHz
  kHz = 997,              // prime, so sampling does not beat with periodic work
};

typedef struct {
  void* frames[kDepth];
} Sample;

static Sample* g_samples;
static atomic_uint g_next;
static atomic_uint g_lost;
static timer_t g_timer;
static int g_armed;

static void on_sigprof(int sig) {
  (void)sig;
  const unsigned i = atomic_fetch_add_explicit(&g_next, 1, memory_order_relaxed);
  if (i >= kMaxSamples) {
    atomic_fetch_add_explicit(&g_lost, 1, memory_order_relaxed);
    return;
  }
  void* stack[kDepth + kSkip] = {0};
  const int n = backtrace(stack, kDepth + kSkip);
  if (n > kSkip) memcpy(g_samples[i].frames, stack + kSkip, sizeof(void*) * (size_t)(n - kSkip));
}

__attribute__((constructor)) static void sampler_start(void) {
  void* p = mmap(NULL, sizeof(Sample) * kMaxSamples, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) return;
  g_samples = p;
  void* warm[4];
  backtrace(warm, 4);  // loads libgcc_s here, not in the signal handler

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  struct sigevent ev;
  memset(&ev, 0, sizeof(ev));
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &g_timer) != 0) return;
  const long ns = 1000000000L / kHz;
  struct itimerspec spec = {{ns / 1000000000L, ns % 1000000000L},
                            {ns / 1000000000L, ns % 1000000000L}};
  if (timer_settime(g_timer, 0, &spec, NULL) != 0) {
    timer_delete(g_timer);
    return;
  }
  g_armed = 1;
}

static void print_frame(FILE* f, void* addr) {
  Dl_info info;
  if (dladdr(addr, &info) == 0 || info.dli_fname == NULL) {
    fprintf(f, " ?+0x%lx", (unsigned long)(uintptr_t)addr);
    return;
  }
  uintptr_t off = (uintptr_t)addr - (uintptr_t)info.dli_fbase;
  const Elf64_Ehdr* eh = (const Elf64_Ehdr*)info.dli_fbase;
  if (eh != NULL && eh->e_type == ET_EXEC) off = (uintptr_t)addr;  // non-PIE: absolute
  const char* name = info.dli_fname[0] != '\0' ? info.dli_fname : "/proc/self/exe";
  fprintf(f, " %s+0x%lx", name, (unsigned long)off);
}

static int by_stack(const void* a, const void* b) {
  return memcmp(((const Sample*)a)->frames, ((const Sample*)b)->frames, sizeof(Sample));
}

__attribute__((destructor)) static void sampler_report(void) {
  if (!g_armed) return;
  timer_delete(g_timer);
  signal(SIGPROF, SIG_IGN);
  g_armed = 0;
  unsigned n = atomic_load(&g_next);
  if (n > kMaxSamples) n = kMaxSamples;
  const char* path = getenv("TIO_SAMPLER_OUT");
  char fallback[64];
  if (path == NULL || path[0] == '\0') {
    snprintf(fallback, sizeof(fallback), "sampler.%d.txt", (int)getpid());
    path = fallback;
  }
  FILE* f = fopen(path, "w");
  if (f == NULL) return;
  fprintf(f, "# sampler hz=%d samples=%u lost=%u\n", (int)kHz, n, atomic_load(&g_lost));
  // Sort so equal stacks are adjacent, then write one line per distinct
  // stack; symbolize.py orders them.
  qsort(g_samples, n, sizeof(Sample), by_stack);
  for (unsigned i = 0; i < n;) {
    unsigned j = i + 1;
    while (j < n && by_stack(&g_samples[i], &g_samples[j]) == 0) ++j;
    fprintf(f, "%u", j - i);
    for (int k = 0; k < kDepth && g_samples[i].frames[k] != NULL; ++k) {
      print_frame(f, g_samples[i].frames[k]);
    }
    fputc('\n', f);
    i = j;
  }
  fclose(f);
}
