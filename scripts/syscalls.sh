#!/bin/sh
# How often a command and every process it starts sleep in and wake through
# `futex`, without strace or perf.
#
# usage: scripts/syscalls.sh command [args...]
#
# The command runs with a small counter preloaded (LD_PRELOAD; C, built with
# `cc` into $TMPDIR). It interposes libc's `syscall` function, through which
# the Rust standard library makes every `futex` call (its mutexes, condition
# variables and `thread::park`), and counts per process:
#   waits        FUTEX_WAIT and FUTEX_WAIT_BITSET calls,
#   not slept    the waits that returned EAGAIN: the word had already moved,
#   wakes        FUTEX_WAKE and FUTEX_WAKE_BITSET calls,
#   woke nobody  the wakes that returned 0: no thread was asleep on the word.
# Each process writes its counts when it exits normally; the script prints
# one line per process. `futex` calls that libc makes itself (inside its own
# pthread functions) do not go through `syscall` and are not counted.
# Example, on the benchmark's hand-off workload:
#   cargo build --release --manifest-path benchmark/Cargo.toml
#   scripts/syscalls.sh benchmark/target/release/zbench run \
#       --workload queue_handoff_tl2 --seconds 8 --seed 3 --trace 0
set -eu
if [ $# -eq 0 ]; then
    echo "usage: $0 command [args...]" >&2
    exit 2
fi
work=$(mktemp -d "${TMPDIR:-/tmp}/syscalls.XXXXXX")
trap 'rm -rf "$work"' EXIT
cat >"$work/counter.c" <<'C'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <linux/futex.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <unistd.h>

static unsigned long waits, not_slept, wakes, woke_nobody;

static void count(unsigned long *counter) {
    __atomic_fetch_add(counter, 1, __ATOMIC_RELAXED);
}

/* Every caller passes at most six arguments after the number; reading six
   whatever was passed is what libc's own `syscall` does. */
long syscall(long number, ...) {
    static long (*real)(long, ...);
    long (*call)(long, ...) = __atomic_load_n(&real, __ATOMIC_RELAXED);
    if (!call) {
        call = (long (*)(long, ...))dlsym(RTLD_NEXT, "syscall");
        __atomic_store_n(&real, call, __ATOMIC_RELAXED);
    }
    va_list list;
    va_start(list, number);
    long arg[6];
    for (int i = 0; i < 6; i++) {
        arg[i] = va_arg(list, long);
    }
    va_end(list);
    long result = call(number, arg[0], arg[1], arg[2], arg[3], arg[4], arg[5]);
    if (number == SYS_futex) {
        int saved = errno;
        switch ((int)arg[1] & FUTEX_CMD_MASK) {
        case FUTEX_WAIT:
        case FUTEX_WAIT_BITSET:
            count(&waits);
            if (result == -1 && saved == EAGAIN) {
                count(&not_slept);
            }
            break;
        case FUTEX_WAKE:
        case FUTEX_WAKE_BITSET:
            count(&wakes);
            if (result == 0) {
                count(&woke_nobody);
            }
            break;
        }
        errno = saved;
    }
    return result;
}

__attribute__((destructor)) static void end(void) {
    const char *dir = getenv("SYSCALL_COUNTS");
    char exe[4096] = {0};
    if (!dir || readlink("/proc/self/exe", exe, sizeof exe - 1) < 0) {
        return;
    }
    char name[4200];
    snprintf(name, sizeof name, "%s/%d.counts", dir, (int)getpid());
    FILE *out = fopen(name, "w");
    if (!out) {
        return;
    }
    fprintf(out, "%d %lu %lu %lu %lu %s\n", (int)getpid(),
            __atomic_load_n(&waits, __ATOMIC_RELAXED),
            __atomic_load_n(&not_slept, __ATOMIC_RELAXED),
            __atomic_load_n(&wakes, __ATOMIC_RELAXED),
            __atomic_load_n(&woke_nobody, __ATOMIC_RELAXED), exe);
    fclose(out);
}
C
cc -O2 -shared -fPIC -o "$work/counter.so" "$work/counter.c" -ldl
mkdir "$work/counts"
status=0
SYSCALL_COUNTS="$work/counts" LD_PRELOAD="$work/counter.so" "$@" || status=$?
printf '\n%8s %12s %12s %12s %12s  %s\n' pid waits 'not slept' wakes 'woke nobody' process
for file in "$work"/counts/*.counts; do
    [ -e "$file" ] || continue
    read -r pid waits not_slept wakes woke_nobody exe <"$file"
    printf '%8s %12s %12s %12s %12s  %s\n' "$pid" "$waits" "$not_slept" "$wakes" "$woke_nobody" "$exe"
done
exit "$status"
