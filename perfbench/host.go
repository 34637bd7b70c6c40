package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// On a shared machine the hypervisor runs other guests while this one is
// runnable, and Linux counts that time as steal in /proc/stat. The run
// prints the window's steal beside the timings a caller sees, which follow
// it. The bytes written come from /proc/self/io.

// readSteal returns the machine's stolen and total CPU time in clock ticks
// from the first line of /proc/stat, or zeros when it cannot be read.
func readSteal() (stolen, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			stolen = v
		}
	}
	return stolen, total
}

// writtenBytes returns the bytes this process has passed to write system
// calls, to sockets and files alike (wchar in /proc/self/io).
func writtenBytes() (uint64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, fmt.Errorf("written bytes: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, errors.New("written bytes: no wchar in /proc/self/io")
}
