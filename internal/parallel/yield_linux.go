package parallel

import "syscall"

// osYield gives the CPU to any other runnable thread (sched_yield).
func osYield() { syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
