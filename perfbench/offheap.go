package main

import (
	"runtime/debug"
	"syscall"
	"unsafe"

	"instameasure"
)

// The workloads' inputs (the pcap bytes, the in-memory packets) live in
// anonymous memory outside the Go heap, as a capture file or a NIC ring
// would. Held on the heap, a few hundred MiB of input would set the GC's
// pacing for the whole run and dominate peak_heap_mb; off it, both
// reflect the system under test. Packets hold no pointers, so the GC
// never needs to see them.

func offHeapBytes(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, nil
	}
	mem, err := syscall.Mmap(-1, 0, len(src), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	copy(mem, src)
	return mem, nil
}

func offHeapPackets(src []instameasure.Packet) ([]instameasure.Packet, error) {
	if len(src) == 0 {
		return nil, nil
	}
	size := len(src) * int(unsafe.Sizeof(src[0]))
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), size)
	mem, err := offHeapBytes(raw)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*instameasure.Packet)(unsafe.Pointer(&mem[0])), len(src)), nil
}

// releaseGenerated returns the generators' heap garbage to the OS once
// the inputs have moved off the heap.
func releaseGenerated() { debug.FreeOSMemory() }
