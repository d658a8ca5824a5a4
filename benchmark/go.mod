module rdfsum/benchmark

go 1.24

require rdfsum v0.0.0

replace rdfsum => ../
