//go:build linux && !race

package vm

import "syscall"

// reserveArena maps n bytes of address space without committing any
// memory (MAP_NORESERVE): the kernel backs each page on first touch, so
// a heap pays only for the arena it has used.
func reserveArena(n uint32) ([]byte, error) {
	return syscall.Mmap(-1, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
}

func releaseArena(b []byte, _ uint32) { _ = syscall.Munmap(b) }
