module netsession/benchmark

go 1.22

require netsession v0.0.0

replace netsession => ../
