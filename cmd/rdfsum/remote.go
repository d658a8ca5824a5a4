package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"rdfsum"
	"rdfsum/client"
)

// Remote mode: with -server URL the query, stats and ingest subcommands
// run against a live rdfsumd over its /v1 API (through the typed client
// package) instead of loading a graph locally — the store stays owned by
// the daemon, and the CLI becomes a thin curl replacement with the same
// output shapes as local mode.

// remoteQuery evaluates the query on the server and renders the rows in
// the local-mode table format.
func remoteQuery(server, qtext string, limit int, explain, saturate bool, prune string) error {
	cl, err := client.New(server)
	if err != nil {
		return err
	}
	res, err := cl.Query(context.Background(), qtext, &client.QueryOptions{
		Limit:    limit,
		Explain:  explain,
		Saturate: saturate,
		Prune:    prune,
	})
	if err != nil {
		return err
	}
	if explain && len(res.Explain) > 0 {
		fmt.Println("plan:")
		fmt.Println(string(res.Explain))
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, v := range res.Vars {
		fmt.Fprintf(tw, "?%s\t", v)
	}
	fmt.Fprintln(tw)
	for _, row := range res.Rows {
		for _, cell := range row {
			fmt.Fprintf(tw, "%s\t", cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush() //nolint:errcheck
	if res.Truncated {
		fmt.Printf("%d row(s) (truncated by the server), epoch %d\n", res.Count, res.Epoch)
	} else {
		fmt.Printf("%d row(s), epoch %d\n", res.Count, res.Epoch)
	}
	return nil
}

// remoteStats prints the server's graph statistics and the summary sizes
// of the requested kinds, mirroring local-mode output plus the serving
// counters a daemon adds (epoch, WAL, replication role).
func remoteStats(server, kindsFlag string) error {
	cl, err := client.New(server)
	if err != nil {
		return err
	}
	ctx := context.Background()
	st, err := cl.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d triples (%d data, %d type, %d schema)\n",
		st.Triples, st.DataTriples, st.TypeTriples, st.SchemaTriples)
	fmt.Printf("       %d data nodes, %d class nodes, %d distinct data properties\n",
		st.DataNodes, st.ClassNodes, st.Properties)
	role := "standalone"
	if rs, err := cl.ReplicationStatus(ctx); err == nil {
		role = rs.Role
	}
	fmt.Printf("       epoch %d, durable %v, read-only %v, role %s\n",
		st.Epoch, st.Durable, st.ReadOnly, role)
	for _, name := range strings.Split(kindsFlag, ",") {
		name = strings.TrimSpace(name)
		info, err := cl.Summary(ctx, name)
		if err != nil {
			return err
		}
		printStats(os.Stdout, info.Kind, rdfsum.Stats{
			DataNodes: info.DataNodes,
			AllNodes:  info.AllNodes,
			DataEdges: info.DataEdges,
			AllEdges:  info.AllEdges,
		})
	}
	return nil
}

// remoteIngest streams a triples file (N-Triples or Turtle, optionally
// gzip-compressed — detected from the name) to the server in
// acknowledged batches (one /v1/triples request per batch); with del the
// triples are removed instead. A server shedding load (429
// "ingest_overloaded") is retried after its Retry-After hint — the
// client-side half of the bounded-queue backpressure contract.
func remoteIngest(server, in string, batch int, del bool) error {
	cl, err := client.New(server)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var (
		buf     = make([]rdfsum.Triple, 0, batch)
		applied int
		epoch   uint64
		durable bool
	)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		for {
			if del {
				res, err := cl.Delete(ctx, buf)
				if err == nil {
					applied += res.Removed
					epoch, durable = res.Epoch, res.Durable
					break
				}
				if wait, ok := retryDelay(err); ok {
					time.Sleep(wait)
					continue
				}
				return err
			}
			res, err := cl.Ingest(ctx, buf)
			if err == nil {
				applied += res.Added
				epoch, durable = res.Epoch, res.Durable
				break
			}
			if wait, ok := retryDelay(err); ok {
				time.Sleep(wait)
				continue
			}
			return err
		}
		buf = buf[:0]
		return nil
	}
	if err := rdfsum.StreamFile(in, nil, func(t rdfsum.Triple) error {
		buf = append(buf, t)
		if len(buf) == batch {
			return flush()
		}
		return nil
	}); err != nil {
		return describeStreamErr(in, err)
	}
	if err := flush(); err != nil {
		return err
	}
	verb := "ingested"
	if del {
		verb = "deleted"
	}
	fmt.Printf("%s %d triples via %s, epoch %d, durable %v\n", verb, applied, server, epoch, durable)
	return nil
}

// retryDelay reports whether err is worth retrying and after how long,
// honoring the server's Retry-After hint with a 1s fallback.
func retryDelay(err error) (time.Duration, bool) {
	if !client.IsRetryable(err) {
		return 0, false
	}
	var ae *client.Error
	if errors.As(err, &ae) && ae.RetryAfter > 0 {
		return ae.RetryAfter, true
	}
	return time.Second, true
}
