package main

import "syscall"

// childProcAttr makes the kernel kill a daemon whose benchmark process
// died without running its cleanup (SIGKILL, a driver's timeout).
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
