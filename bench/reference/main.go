// Command reference is the yardstick of the benchmark: a server that does
// the same fixed, small amount of work per request whatever the checkout
// holds. The load generator times exchanges with it in slices between its
// exchanges with the deployment under test, in the same way, from the same
// clients, over the same loopback HTTP. How long a reference exchange takes
// says how fast the host is at that moment, which is what the benchmark
// divides out of its time-based metrics.
//
// It imports nothing of the repository, so no change to the engine or the
// servers can move it.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
)

func main() {
	addr := flag.String("addr", "", "loopback address to listen on")
	flag.Parse()
	// About the size and shape of an /ask reply.
	body := []byte(`{"question":"reference","answered":true,"answer":"` + strings.Repeat("reference ", 64) + `"}` + "\n")
	http.HandleFunc("/ask", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(body); err != nil {
			fmt.Fprintln(os.Stderr, "reference:", err)
		}
	})
	// The harness ends the process with SIGTERM.
	fmt.Fprintln(os.Stderr, "reference:", http.ListenAndServe(*addr, nil))
	os.Exit(1)
}
