// The data collector on a real filesystem tree: build an extracted-image
// tree on disk (as if a VM image were mounted), collect it into a system
// image, and check it against knowledge learned from the synthetic corpus.
//
// The collected tree deliberately carries the Figure 1(b) problem: the
// MySQL data directory is owned by root instead of the configured user.
//
//	go run ./examples/collect-tree
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	encore "repro"
	"repro/internal/collector"
	"repro/internal/corpus"
)

func main() {
	root, err := os.MkdirTemp("", "encore-tree-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	if err := buildTree(root); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted tree at %s\n", root)

	// Collect: walk the tree, resolve ownership against the tree's own
	// /etc/passwd, capture the MySQL configuration.
	img, err := collector.Collect(root, "collected-host", collector.Options{
		Apps: map[string]string{"mysql": "etc/my.cnf"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d files, %d users, %d services\n",
		len(img.Files), len(img.Users), len(img.Services))

	// The collector cannot see which uid created the files in this demo
	// tree (they belong to whoever runs the example), so ownership is
	// overlaid from the scenario: the restore ran as root.
	img.Files["/var/lib/mysql"].Owner = "root"
	img.Files["/var/lib/mysql"].Group = "root"

	training, err := corpus.Training("mysql", 60, 41)
	if err != nil {
		log.Fatal(err)
	}
	fw := encore.New()
	knowledge, err := fw.Learn(training)
	if err != nil {
		log.Fatal(err)
	}
	report, err := fw.CompilePlan(knowledge).Check(img)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", report.RenderText(5))
	fmt.Printf("\nremediation advice:\n%s", encore.RenderAdvice(knowledge.Advise(report)))
}

// buildTree lays out a minimal extracted system image on disk.
func buildTree(root string) error {
	files := map[string]string{
		"etc/passwd":     "root:x:0:0:root:/root:/bin/bash\nmysql:x:27:27:MySQL:/var/lib/mysql:/sbin/nologin\n",
		"etc/group":      "root:x:0:\nmysql:x:27:\n",
		"etc/services":   "mysql 3306/tcp\nssh 22/tcp\n",
		"etc/os-release": "ID=centos\nVERSION_ID=\"6.3\"\n",
		"etc/my.cnf": "[mysqld]\n" +
			"datadir = /var/lib/mysql\n" +
			"user = mysql\n" +
			"port = 3306\n" +
			"socket = /var/lib/mysql/mysql.sock\n" +
			"log-error = /var/log/mysqld.log\n" +
			"pid-file = /var/run/mysqld.pid\n" +
			"tmpdir = /tmp\n" +
			"max_allowed_packet = 16M\n" +
			"net_buffer_length = 8K\n" +
			"key_buffer_size = 16M\n" +
			"max_heap_table_size = 64M\n" +
			"max_connections = 151\n",
		"var/lib/mysql/ibdata1":    "x",
		"var/lib/mysql/mysql.sock": "",
		"var/log/mysqld.log":       "",
		"var/run/mysqld.pid":       "42",
		"tmp/.keep":                "",
	}
	for rel, content := range files {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			return err
		}
	}
	// Match the fleet's permission conventions (umask-proof chmods), so
	// the report isolates the planted ownership problem.
	modes := map[string]os.FileMode{
		"var/lib/mysql":            0o750,
		"var/lib/mysql/ibdata1":    0o660,
		"var/lib/mysql/mysql.sock": 0o777,
		"var/log/mysqld.log":       0o640,
		"tmp":                      0o777,
	}
	for rel, mode := range modes {
		if err := os.Chmod(filepath.Join(root, rel), mode); err != nil {
			return err
		}
	}
	return nil
}
