// heapprof: an LD_PRELOAD heap interposer that reports live bytes by call
// site at the heap's peak.
//
// Every malloc/calloc/realloc/memalign/posix_memalign/aligned_alloc records
// its size and call stack (the first kDepth return addresses); free drops
// it. Whenever live bytes reach a new high-water by more than a small step
// (1/256 of the peak, at least 64 KiB), the per-site live bytes are copied
// into a snapshot, so at exit the snapshot is within that step of the true
// peak. At exit the snapshot is written, one site per line, heaviest first:
//
//   # heapprof peak_live_bytes=P snapshot_live_bytes=S allocs=A sites=N
//   <live bytes> <live blocks> <allocs> <module>+0x<offset> ...
//
// (live bytes and blocks at the snapshot; allocs over the whole run).
//
// Offsets are relative to each module's load base (absolute for a non-PIE
// executable), as addr2line wants them; tools/symbolize.py resolves them
// and attributes each site to its first frame outside the allocator.
//
// Build and run (the build tree's Debug or RelWithDebInfo binaries carry
// the line tables the resolver needs):
//   cc -O2 -g -shared -fPIC -o libtio_heapprof.so tools/heapprof.c -ldl
//   LD_PRELOAD=./libtio_heapprof.so TIO_HEAPPROF_OUT=heap.txt <program> ...
//   python3 tools/symbolize.py heap.txt
//
// For coroutine-frame attribution, build the program with
// -DTIO_FRAME_POOL_NO_RECYCLE: every frame is then its own heap block, and
// the resolver names the coroutine whose ramp allocated it.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <elf.h>
#include <errno.h>
#include <execinfo.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void* __libc_malloc(size_t);
extern void __libc_free(void*);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);
extern void* __libc_memalign(size_t, size_t);

enum {
  kDepth = 8,             // return addresses kept per site
  kSkip = 2,              // backtrace frames inside this file (record + the hook)
  kSiteBits = 16,         // site table: 65,536 stacks
  kMinBlockBits = 20,     // block table starts at 1M slots and doubles
};

typedef struct {
  void* frames[kDepth];
  uint64_t live, live_blocks;
  uint64_t snap, snap_blocks;
  uint64_t allocs;
  uint32_t used;
} Site;

typedef struct {
  uintptr_t ptr;  // 0 = empty slot
  uint64_t size;
  uint32_t site;
} Block;

static Site* g_sites;  // 1 << kSiteBits entries, open addressing on the stack hash
static uint32_t g_num_sites;
static Block* g_blocks;
static uint64_t g_block_cap;  // power of two
static uint64_t g_block_count;
static uint64_t g_live, g_peak, g_snap_peak, g_allocs;
static atomic_flag g_lock = ATOMIC_FLAG_INIT;
static int g_ready;
static __thread int t_in_hook;

static void lock(void) {
  while (atomic_flag_test_and_set_explicit(&g_lock, memory_order_acquire)) {
  }
}
static void unlock(void) { atomic_flag_clear_explicit(&g_lock, memory_order_release); }

static void* map(size_t bytes) {
  void* p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

static uint64_t mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

static uint32_t site_of(void* const* frames) {
  uint64_t h = 0;
  for (int i = 0; i < kDepth; ++i) h = mix(h ^ (uintptr_t)frames[i]);
  const uint32_t mask = (1u << kSiteBits) - 1;
  for (uint32_t i = (uint32_t)h & mask;; i = (i + 1) & mask) {
    Site* s = &g_sites[i];
    if (!s->used) {
      if (g_num_sites + 1 >= mask) return 0;  // full: everything else shares slot 0
      memcpy(s->frames, frames, sizeof(s->frames));
      s->used = 1;
      ++g_num_sites;
      return i;
    }
    if (memcmp(s->frames, frames, sizeof(s->frames)) == 0) return i;
  }
}

static uint64_t block_slot(uintptr_t p) { return mix(p) & (g_block_cap - 1); }

static void block_insert(Block* table, uint64_t cap, Block b) {
  for (uint64_t i = mix(b.ptr) & (cap - 1);; i = (i + 1) & (cap - 1)) {
    if (table[i].ptr == 0) {
      table[i] = b;
      return;
    }
  }
}

static int grow_blocks(void) {
  const uint64_t cap = g_block_cap ? 2 * g_block_cap : (uint64_t)1 << kMinBlockBits;
  Block* table = map(cap * sizeof(Block));
  if (table == NULL) return 0;
  for (uint64_t i = 0; i < g_block_cap; ++i) {
    if (g_blocks[i].ptr != 0) block_insert(table, cap, g_blocks[i]);
  }
  if (g_blocks != NULL) munmap(g_blocks, g_block_cap * sizeof(Block));
  g_blocks = table;
  g_block_cap = cap;
  return 1;
}

// Linear probing with backward-shift deletion: no tombstones.
static int block_erase(uintptr_t p, Block* out) {
  const uint64_t mask = g_block_cap - 1;
  uint64_t i = block_slot(p);
  while (g_blocks[i].ptr != p) {
    if (g_blocks[i].ptr == 0) return 0;
    i = (i + 1) & mask;
  }
  *out = g_blocks[i];
  for (uint64_t j = (i + 1) & mask; g_blocks[j].ptr != 0; j = (j + 1) & mask) {
    const uint64_t home = block_slot(g_blocks[j].ptr);
    // Move j back into the hole at i unless its home lies in (i, j].
    if (((j - home) & mask) >= ((j - i) & mask)) {
      g_blocks[i] = g_blocks[j];
      i = j;
    }
  }
  g_blocks[i].ptr = 0;
  --g_block_count;
  return 1;
}

static void take_snapshot(void) {
  for (uint32_t i = 0; i < (1u << kSiteBits); ++i) {
    if (g_sites[i].used) {
      g_sites[i].snap = g_sites[i].live;
      g_sites[i].snap_blocks = g_sites[i].live_blocks;
    }
  }
  g_snap_peak = g_live;
}

__attribute__((noinline)) static void record(void* p, size_t size) {
  if (p == NULL || !g_ready || t_in_hook) return;
  t_in_hook = 1;
  void* stack[kDepth + kSkip] = {0};
  backtrace(stack, kDepth + kSkip);
  lock();
  if ((g_block_count + 1) * 2 > g_block_cap && !grow_blocks()) {
    unlock();
    t_in_hook = 0;
    return;
  }
  const uint32_t site = site_of(stack + kSkip);
  block_insert(g_blocks, g_block_cap, (Block){(uintptr_t)p, size, site});
  ++g_block_count;
  g_sites[site].live += size;
  ++g_sites[site].live_blocks;
  ++g_sites[site].allocs;
  ++g_allocs;
  g_live += size;
  if (g_live > g_peak) {
    g_peak = g_live;
    uint64_t step = g_snap_peak / 256;
    if (step < (64u << 10)) step = 64u << 10;
    if (g_live >= g_snap_peak + step) take_snapshot();
  }
  unlock();
  t_in_hook = 0;
}

static void forget(void* p) {
  if (p == NULL || !g_ready) return;
  lock();
  Block b;
  if (block_erase((uintptr_t)p, &b)) {
    g_sites[b.site].live -= b.size;
    --g_sites[b.site].live_blocks;
    g_live -= b.size;
  }
  unlock();
}

void* malloc(size_t n) {
  void* p = __libc_malloc(n);
  record(p, n);
  return p;
}

void* calloc(size_t n, size_t m) {
  void* p = __libc_calloc(n, m);
  record(p, n * m);
  return p;
}

void* realloc(void* old, size_t n) {
  forget(old);
  void* p = __libc_realloc(old, n);
  record(p, n);
  return p;
}

void free(void* p) {
  forget(p);
  __libc_free(p);
}

void* memalign(size_t align, size_t n) {
  void* p = __libc_memalign(align, n);
  record(p, n);
  return p;
}

void* aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void** out, size_t align, size_t n) {
  void* p = __libc_memalign(align, n);
  if (p == NULL) return ENOMEM;
  record(p, n);
  *out = p;
  return 0;
}

// "<module>+0x<offset>" for one return address.
static void print_frame(FILE* f, void* addr) {
  Dl_info info;
  if (addr == NULL) return;
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

static int by_snapshot(const void* a, const void* b) {
  const uint64_t x = g_sites[*(const uint32_t*)a].snap;
  const uint64_t y = g_sites[*(const uint32_t*)b].snap;
  return x < y ? 1 : x > y ? -1 : 0;
}

__attribute__((constructor)) static void heapprof_init(void) {
  g_sites = map(sizeof(Site) << kSiteBits);
  if (g_sites == NULL || !grow_blocks()) return;
  void* warm[4];
  t_in_hook = 1;
  backtrace(warm, 4);  // loads the unwinder before any hook needs it
  t_in_hook = 0;
  g_ready = 1;
}

__attribute__((destructor)) static void heapprof_report(void) {
  if (!g_ready) return;
  t_in_hook = 1;
  lock();
  g_ready = 0;
  unlock();
  const char* path = getenv("TIO_HEAPPROF_OUT");
  char fallback[64];
  if (path == NULL || path[0] == '\0') {
    snprintf(fallback, sizeof(fallback), "heapprof.%d.txt", (int)getpid());
    path = fallback;
  }
  FILE* f = fopen(path, "w");
  if (f == NULL) return;
  uint32_t* order = map(sizeof(uint32_t) << kSiteBits);
  uint32_t n = 0;
  uint64_t snap_total = 0;
  for (uint32_t i = 0; order != NULL && i < (1u << kSiteBits); ++i) {
    if (g_sites[i].used && g_sites[i].snap > 0) {
      order[n++] = i;
      snap_total += g_sites[i].snap;
    }
  }
  if (order != NULL) qsort(order, n, sizeof(uint32_t), by_snapshot);
  fprintf(f, "# heapprof peak_live_bytes=%llu snapshot_live_bytes=%llu allocs=%llu sites=%u\n",
          (unsigned long long)g_peak, (unsigned long long)snap_total,
          (unsigned long long)g_allocs, n);
  for (uint32_t k = 0; k < n; ++k) {
    const Site* s = &g_sites[order[k]];
    fprintf(f, "%llu %llu %llu", (unsigned long long)s->snap,
            (unsigned long long)s->snap_blocks, (unsigned long long)s->allocs);
    for (int i = 0; i < kDepth; ++i) print_frame(f, s->frames[i]);
    fputc('\n', f);
  }
  fclose(f);
}
