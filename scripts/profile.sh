#!/bin/sh
# Where a command spends its time, by source line: a sampling profile of
# any command and of every process it starts, without perf.
#
# usage: scripts/profile.sh [-n TOP] command [args...]
#
# The command runs with a small sampler preloaded (LD_PRELOAD; C, built with
# `cc` into $TMPDIR). Every thread gets a timer on CLOCK_MONOTONIC at 10 kHz
# whose signal goes to that thread alone (a process-wide timer would signal
# the mostly sleeping main thread, and a timer on the thread's CPU clock
# fires only at the scheduler's tick); the handler records the interrupted
# program counter when the thread's CPU clock moved by a quarter of the
# period since the last tick, so a parked thread counts nothing (waking it
# for the signal costs it CPU time of its own, well under 25 us) — and a
# thread that runs in bursts much shorter than 100 us is under-counted.
# Each process writes its samples when it exits normally, every
# sample already resolved to an object file and an address in it. The
# script then symbolizes them with `llvm-symbolizer --inlining` and prints,
# for every process with samples, the TOP (default 25) source lines — the
# innermost frame outside the Rust standard library, so an atomic is charged
# to the line that issues it — and the TOP innermost functions, each with
# its share of the process's samples. It also prints, per process, the share
# of samples whose previous instruction (by `objdump -d`) is `lock`-prefixed
# or an `xchg` with memory: a sample skids past such an instruction onto the
# next one, so that share is roughly the time spent in locked instructions.
#
# Line-level answers need line tables in the binary; for an object file
# without them (no `.debug_line` section) the script says so and charges
# its samples to functions only. The workspace's release profile keeps
# full debug info; the benchmark is a workspace of its own whose release
# build has none, so build it with line tables into a target directory of
# its own. Example, on the benchmark's long-transaction workload:
#   CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release \
#       --manifest-path benchmark/Cargo.toml --target-dir target/zbench-lines
#   scripts/profile.sh target/zbench-lines/release/zbench run \
#       --workload bank_z_long --seconds 10 --seed 1 --trace 0
set -eu
top=25
if [ "${1:-}" = -n ]; then
    top=$2
    shift 2
fi
if [ $# -eq 0 ]; then
    echo "usage: $0 [-n TOP] command [args...]" >&2
    exit 2
fi
work=$(mktemp -d "${TMPDIR:-/tmp}/profile.XXXXXX")
trap 'rm -rf "$work"' EXIT
cat >"$work/sampler.c" <<'C'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <fcntl.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

#define CAPACITY (1u << 22)
#define PERIOD_NS 100000L

static uintptr_t samples[CAPACITY];
static unsigned taken;
static __thread long long last_cpu = -1;

static long long thread_cpu_ns(void) {
    struct timespec now;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return now.tv_sec * 1000000000LL + now.tv_nsec;
}

static void on_tick(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    long long cpu = thread_cpu_ns();
    int ran = last_cpu >= 0 && cpu - last_cpu >= PERIOD_NS / 4;
    last_cpu = cpu;
    if (!ran) {
        return;
    }
    unsigned at = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (at < CAPACITY) {
        samples[at] = (uintptr_t)((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
    }
}

static void start_timer(void) {
    struct sigevent event;
    memset(&event, 0, sizeof event);
    event.sigev_notify = SIGEV_THREAD_ID;
    event.sigev_signo = SIGPROF;
    event.sigev_notify_thread_id = (pid_t)syscall(SYS_gettid);
    timer_t timer;
    if (timer_create(CLOCK_MONOTONIC, &event, &timer) == 0) {
        struct itimerspec every = {{0, PERIOD_NS}, {0, PERIOD_NS}};
        timer_settime(timer, 0, &every, NULL);
    }
}

struct start {
    void *(*routine)(void *);
    void *arg;
};

static void *run(void *boxed) {
    struct start start = *(struct start *)boxed;
    free(boxed);
    start_timer();
    return start.routine(start.arg);
}

int pthread_create(pthread_t *thread, const pthread_attr_t *attr,
                   void *(*routine)(void *), void *arg) {
    static int (*real)(pthread_t *, const pthread_attr_t *, void *(*)(void *), void *);
    if (!real) {
        real = dlsym(RTLD_NEXT, "pthread_create");
    }
    struct start *boxed = malloc(sizeof *boxed);
    if (!boxed) {
        return real(thread, attr, routine, arg);
    }
    boxed->routine = routine;
    boxed->arg = arg;
    return real(thread, attr, run, boxed);
}

__attribute__((constructor)) static void begin(void) {
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_tick;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    start_timer();
}

struct lookup {
    uintptr_t pc;
    const char *path;
    uintptr_t address;
};

static int find_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    struct lookup *lookup = data;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *segment = &info->dlpi_phdr[i];
        uintptr_t from = info->dlpi_addr + segment->p_vaddr;
        if (segment->p_type == PT_LOAD && lookup->pc >= from &&
            lookup->pc < from + segment->p_memsz) {
            lookup->path = info->dlpi_name;
            lookup->address = lookup->pc - info->dlpi_addr;
            return 1;
        }
    }
    return 0;
}

__attribute__((destructor)) static void end(void) {
    struct sigaction ignore;
    memset(&ignore, 0, sizeof ignore);
    ignore.sa_handler = SIG_IGN;
    sigaction(SIGPROF, &ignore, NULL);
    const char *dir = getenv("PROFILE_SAMPLES");
    unsigned count = __atomic_load_n(&taken, __ATOMIC_RELAXED);
    if (!dir || count == 0) {
        return;
    }
    if (count > CAPACITY) {
        count = CAPACITY;
    }
    char exe[4096] = {0};
    if (readlink("/proc/self/exe", exe, sizeof exe - 1) < 0) {
        return;
    }
    char name[4200];
    snprintf(name, sizeof name, "%s/%d.samples", dir, (int)getpid());
    FILE *out = fopen(name, "w");
    if (!out) {
        return;
    }
    fprintf(out, "process %d %s\n", (int)getpid(), exe);
    for (unsigned i = 0; i < count; i++) {
        struct lookup lookup = {samples[i], NULL, 0};
        dl_iterate_phdr(find_object, &lookup);
        if (lookup.path) {
            const char *path = lookup.path[0] ? lookup.path : exe;
            fprintf(out, "%s 0x%lx\n", path, (unsigned long)lookup.address);
        } else {
            fprintf(out, "[unknown] 0x%lx\n", (unsigned long)samples[i]);
        }
    }
    fclose(out);
}
C
cc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c" -ldl -lrt -lpthread
mkdir "$work/samples"
status=0
PROFILE_SAMPLES="$work/samples" LD_PRELOAD="$work/sampler.so" "$@" || status=$?
for file in "$work"/samples/*.samples; do
    [ -e "$file" ] || continue
    read -r _ pid exe <"$file"
    total=$(($(wc -l <"$file") - 1))
    printf '\n== process %s (%s): %d samples\n' "$pid" "$exe" "$total"
    # One symbolizer run per object file over its distinct addresses.
    tail -n +2 "$file" | sort | uniq -c >"$work/counts"
    : >"$work/frames"
    awk '{ print $2 }' "$work/counts" | sort -u | while read -r object; do
        awk -v object="$object" '$2 == object { print $3 }' "$work/counts" |
            llvm-symbolizer --inlining --print-address --obj="$object" 2>/dev/null |
            awk -v object="$object" '
                # Rust legacy mangling left over: the hash, then escapes.
                function tidy(name) {
                    sub(/::h[0-9a-f]+( \(\.llvm\.[0-9]+\))?$/, "", name)
                    gsub(/\$LT\$/, "<", name); gsub(/\$GT\$/, ">", name)
                    gsub(/\$u20\$/, " ", name); gsub(/\$RF\$/, "\\&", name)
                    gsub(/\$u7b\$/, "{", name); gsub(/\$u7d\$/, "}", name)
                    gsub(/\$C\$/, ",", name); gsub(/\.\./, "::", name)
                    return name
                }
                function flush() {
                    if (address != "") print object, address, inner "\t" own
                    address = ""
                }
                # One block per address, innermost frame first: a function
                # line, then its file:line:column. The line kept is the
                # innermost one outside the Rust standard library.
                /^0x/ { flush(); address = $1; inner = ""; own = ""; next }
                address != "" && NF {
                    name = tidy($0); getline where; sub(/:[0-9]+$/, "", where)
                    # No symbol: at least the object, e.g. an ifunc of libc.
                    if (name == "??") name = "?? in " object
                    if (inner == "") inner = name
                    if (own == "" && where !~ /^\/rustc\//) own = where "  " name
                }
                END { flush() }
            ' >>"$work/frames"
    done
    # Samples right after a locked instruction, per object file.
    locked=0
    awk '{ print $2 }' "$work/counts" | sort -u >"$work/objects"
    while read -r object; do
        [ -f "$object" ] || continue
        if ! objdump -h "$object" 2>/dev/null | grep -q ' \.debug_line '; then
            echo "-- no line tables in $object"
        fi
        awk -v object="$object" '$2 == object { sub(/^0x/, "", $3); print $3, $1 }' \
            "$work/counts" >"$work/addresses"
        n=$(objdump -d --no-show-raw-insn "$object" 2>/dev/null | awk '
            FNR == NR { want[$1] = $2; next }
            /^ *[0-9a-f]+:\t/ {
                address = $1; sub(/:$/, "", address)
                sub(/^ *[0-9a-f]+:\t */, "")
                if ((address in want) && (previous ~ /^lock / || previous ~ /^xchg .*\(/))
                    locked += want[address]
                previous = $0
            }
            END { print locked + 0 }
        ' "$work/addresses" -)
        locked=$((locked + n))
    done <"$work/objects"
    awk -v locked="$locked" -v total="$total" 'BEGIN {
        printf "-- %.1f%% of samples right after a locked instruction (lock prefix, or xchg with memory)\n", 100 * locked / total
    }'
    awk -v total="$total" -v top="$top" '
        FILENAME == ARGV[1] { key = $2 " " $3; count[key] = $1; next }
        {
            key = $1 " " $2
            split(substr($0, length($1) + length($2) + 3), parts, "\t")
            lines[parts[2] == "" ? parts[1] : parts[2]] += count[key]
            functions[parts[1]] += count[key]
        }
        END {
            print "-- source lines (innermost frame outside the standard library)"
            for (line in lines) printf "%6.2f%%  %s\n", 100 * lines[line] / total, line | "sort -rn | head -n " top
            close("sort -rn | head -n " top)
            print "-- functions (innermost frame)"
            for (name in functions) printf "%6.2f%%  %s\n", 100 * functions[name] / total, name | "sort -rn | head -n " top
            close("sort -rn | head -n " top)
        }
    ' "$work/counts" "$work/frames"
done
exit "$status"
