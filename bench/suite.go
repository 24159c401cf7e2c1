package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Summary is what a suite invocation writes: a run set (one or more runs
// of all five workloads) plus the machine it ran on. It makes no
// performance claim; the field is there so no reader has to wonder.
type Summary struct {
	Schema  string     `json:"schema"`
	Machine Machine    `json:"machine"`
	Seed    int64      `json:"seed"`
	Seconds float64    `json:"seconds"`
	Runs    [][]Result `json:"runs"` // Runs[r] = that run's results, untraced then traced per workload
	Claim   *string    `json:"claim"`
}

// Machine identifies the box the numbers came from.
type Machine struct {
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func thisMachine() Machine {
	m := Machine{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					m.CPUModel = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
		_ = f.Close()
	}
	return m
}

type suiteOptions struct {
	seed    int64
	seconds float64
	traced  bool
	smoke   bool
	runs    int
	out     string
}

// runSuite runs every workload as its own child process, one at a time,
// so heap state never leaks from one workload into the next.
func runSuite(opt suiteOptions) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: cannot find own executable: %v\n", err)
		return 1
	}
	sum := Summary{Schema: "asap-bench/1", Machine: thisMachine(), Seed: opt.seed, Seconds: opt.seconds}
	fmt.Printf("asap bench: seed %d, %g s per workload, %d run(s); %d CPUs (%s), %s\n",
		opt.seed, opt.seconds, opt.runs, sum.Machine.NProc, sum.Machine.CPUModel, sum.Machine.GoVersion)
	ok := true
	for r := 0; r < opt.runs; r++ {
		var results []Result
		modes := []int{0}
		if opt.traced {
			modes = append(modes, 1)
		}
		for _, w := range Workloads {
			for _, mode := range modes {
				res, err := runChild(self, w.Name, opt, mode)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
					ok = false
					continue
				}
				ok = ok && res.correct()
				results = append(results, *res)
			}
		}
		sum.Runs = append(sum.Runs, results)
	}
	data, _ := json.MarshalIndent(sum, "", " ")
	if opt.out != "" {
		if err := os.WriteFile(opt.out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Printf("summary written to %s\n", opt.out)
	} else {
		fmt.Println(string(data))
	}
	if !ok {
		fmt.Println("FAILED: a workload did not run or a correctness check failed")
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, echoes its human output
// and returns the parsed RESULT line.
func runChild(self, name string, opt suiteOptions, trace int) (*Result, error) {
	args := []string{"-workload", name, "-seed", fmt.Sprint(opt.seed),
		"-seconds", fmt.Sprint(opt.seconds), "-trace", fmt.Sprint(trace)}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	res, human := parseChildOutput(&stdout)
	fmt.Print(human)
	if res == nil {
		return nil, fmt.Errorf("no result (%v)", runErr)
	}
	return res, nil
}

// parseChildOutput splits a child's stdout into its human-readable part
// and the RESULT line; the final contract line is for the driver only.
func parseChildOutput(r io.Reader) (*Result, string) {
	var human strings.Builder
	var res *Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "RESULT "):
			var rr Result
			if json.Unmarshal([]byte(line[len("RESULT "):]), &rr) == nil {
				res = &rr
			}
		case strings.HasPrefix(line, `{"correct":`):
		default:
			human.WriteString(line)
			human.WriteByte('\n')
		}
	}
	return res, human.String()
}
