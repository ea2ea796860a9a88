package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo identifies the machine a result was measured on. Cache sizes are
// the ones the kernel reports for cpu0; a hypervisor may report an L3 far
// larger than what one tenant can use, which is why the README compares
// kernel bandwidth with the measured triad and not with a roofline.
type hostInfo struct {
	CPUModel   string            `json:"cpu_model"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GoVersion  string            `json:"go_version"`
	Caches     map[string]string `json:"caches"`
}

func readHost() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		Caches: map[string]string{}}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	idx, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, dir := range idx {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(dir, name))
			return strings.TrimSpace(string(b))
		}
		level, size, kind := read("level"), read("size"), strings.ToLower(read("type"))
		if level != "" && size != "" && kind != "" {
			h.Caches["L"+level+kind[:1]] = size // L1d, L1i, L2u, L3u
		}
	}
	return h
}
